"""LINT — symbolic analyzer and certificate-store replay timings.

Times the three phases the ``repro lint`` pre-flight goes through in
CI: a cold symbolic pass over the full bundled catalogue (frames and
guard satisfiability proven from the Plan IR), a warm pass answered from the content-addressed certificate
store, and a single-action symbolic analysis on a state space far past
any probe budget (4^30 states) — the case that motivates the analyzer.

Standalone diagnostics: this suite is *not* part of the
``BENCH_core.json`` regression gate (lint wall time tracks catalogue
size, not the perf core), so it asserts qualitative claims only — the
catalogue stays clean, every planned action is proven, and the warm
run is served entirely from the store.
"""

from repro.analysis import LintConfig, all_lint_targets, lint
from repro.analysis.symbolic import analyze_action, clear_symbolic_caches
from repro.core import Action, Plan, Variable
from repro.core.state import Schema
from repro.store import backend as store_backend


def _lint_catalogue():
    return [lint(target) for target in all_lint_targets()]


def bench_lint_catalogue_cold(benchmark, report):
    def run():
        clear_symbolic_caches()
        store_backend.set_active_store(None)
        return _lint_catalogue()

    reports = benchmark(run)
    assert not any(r.errors() for r in reports)
    proven = sum(len(r.proofs) for r in reports)
    assert proven > 0
    report(
        "LINT",
        f"cold symbolic lint of {len(reports)} targets: "
        f"{proven} proven facts",
    )


def bench_lint_catalogue_warm_store(benchmark, report):
    store_backend.set_active_store(":memory:")
    try:
        clear_symbolic_caches()
        cold = _lint_catalogue()

        def run():
            clear_symbolic_caches()  # memo off: measure the store path
            store_backend.reset_stats()
            return _lint_catalogue()

        warm = benchmark(run)
        stats = store_backend.stats()
        assert stats.get("misses", 0) == 0, stats
        assert stats.get("lint_report_hits", 0) == len(warm)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        report(
            "LINT",
            f"warm replay of {len(warm)} targets: "
            f"{stats.get('hits', 0)} store hits, 0 misses",
        )
    finally:
        store_backend.set_active_store(None)
        store_backend.reset_stats()


def bench_symbolic_analysis_huge_space(benchmark, report):
    variables = [Variable(f"v{i}", [0, 1, 2, 3]) for i in range(30)]
    schema = Schema.of(tuple(v.name for v in variables))
    action = Action(
        "wide", plan=Plan(("eq_var", "v0", "v1"), [("set_const", "v2", 1)])
    )
    config = LintConfig()

    def run():
        clear_symbolic_caches()
        return analyze_action(
            action, variables, schema, target="bench", config=config
        )

    analysis = benchmark(run)
    assert analysis.status == "compiled" and analysis.covers_frames
    assert analysis.reads == frozenset({"v0", "v1"})
    assert analysis.writes == frozenset({"v2"})
    assert not analysis.diagnostics
    report(
        "LINT",
        f"symbolic frames+guards on 4^30 states: "
        f"{len(analysis.proofs)} proofs, no probe",
    )
