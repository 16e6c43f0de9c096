"""Tests for the symbolic Plan-IR analyzer and its linter integration.

Covers the analyzer end to end: the finite-domain guard solver, exact
IR frames on spaces far beyond any probe limit, the DC50x/DC51x codes,
the catalogue coverage contract, lint certificates in the
content-addressed store, cache draining, and the SARIF reporter/CLI
surface.
"""

import io
import json

import pytest

from repro.analysis import (
    CatalogueCoverageError,
    LintConfig,
    LintTarget,
    all_lint_targets,
    build_probe,
    infer_frame,
    lint,
    render_sarif,
    uncovered_modules,
)
from repro.analysis import catalogue as catalogue_module
from repro.analysis import symbolic
from repro.analysis.diagnostics import (
    Diagnostic,
    LintReport,
    Proof,
    Severity,
    Suppression,
)
from repro.analysis.symbolic import GuardSolver, analyze_action
from repro.core import (
    Action,
    Plan,
    Program,
    Variable,
)
from repro.core.exploration import clear_all_caches
from repro.core.state import Schema
from repro.store import backend as store_backend
from repro import cli, programs


@pytest.fixture(autouse=True)
def _clean_store():
    store_backend.set_active_store(None)
    store_backend.reset_stats()
    yield
    store_backend.set_active_store(None)
    store_backend.reset_stats()


def _schema_of(variables):
    return Schema.of(tuple(v.name for v in variables))


def _analyze(action, variables, **kwargs):
    return analyze_action(
        action, variables, _schema_of(variables), target="t", **kwargs
    )


def _codes(analysis):
    return [d.code for d in analysis.diagnostics]


# ---------------------------------------------------------------------------
# the guard solver
# ---------------------------------------------------------------------------

class TestGuardSolver:
    domains = {"v0": (0, 1, 2), "v1": (0, 1, 2)}

    def solver(self, **kwargs):
        return GuardSolver(dict(self.domains), **kwargs)

    def test_satisfiable_and_witness(self):
        solver = self.solver()
        expr = ("and", ("eq_const", "v0", 1), ("ne_const", "v1", 0))
        assert solver.satisfiable(expr) is True
        witness = solver.witness(expr)
        assert witness["v0"] == 1 and witness["v1"] != 0

    def test_out_of_domain_constant_is_unsat(self):
        assert self.solver().satisfiable(("eq_const", "v0", 99)) is False

    def test_tautology(self):
        solver = self.solver()
        expr = ("or", ("eq_const", "v0", 0), ("ne_const", "v0", 0))
        assert solver.tautological(expr) is True
        assert solver.tautological(("eq_const", "v0", 0)) is False

    def test_disjoint_guards(self):
        solver = self.solver()
        assert solver.co_satisfiable(
            ("eq_const", "v0", 0), ("eq_const", "v0", 1)
        ) is False
        assert solver.co_satisfiable(
            ("eq_const", "v0", 0), ("eq_const", "v1", 1)
        ) is True

    def test_majority(self):
        domains = {"m": (0, 1), "b0": (0, 1), "b1": (0, 1), "b2": (0, 1)}
        solver = GuardSolver(domains)
        expr = ("eq_majority", "m", ("b0", "b1", "b2"), 3)
        assert solver.satisfiable(expr) is True
        # m must equal the majority bit of a unanimous vote
        both = ("and",
                ("eq_majority", "m", ("b0", "b1", "b2"), 3),
                ("and", ("eq_const", "b0", 1), ("eq_const", "b1", 1),
                 ("eq_const", "b2", 1), ("eq_const", "m", 0)))
        assert solver.satisfiable(both) is False

    def test_abstraction_fallback_over_budget(self):
        solver = self.solver(budget=2)  # no truth table fits
        assert solver.table(("eq_var", "v0", "v1")) is None
        # value-set abstraction still proves domain-level facts ...
        assert solver.satisfiable(("eq_const", "v0", 99)) is False
        assert solver.tautological(("ne_const", "v0", 99)) is True
        # ... and declines the ones it cannot decide
        assert solver.satisfiable(("eq_var", "v0", "v1")) is None

    def test_abstraction_disjoint_domains(self):
        solver = GuardSolver({"a": (0, 1), "b": (5, 6)}, budget=1)
        assert solver.satisfiable(("eq_var", "a", "b")) is False
        assert solver.tautological(("ne_var", "a", "b")) is True


# ---------------------------------------------------------------------------
# synthetic per-action verdicts: DC30x / DC50x / DC51x
# ---------------------------------------------------------------------------

def _two_vars():
    return [Variable("v0", [0, 1, 2]), Variable("v1", [0, 1, 2])]


class TestSymbolicVerdicts:
    def test_dc501_dead_subexpression(self):
        variables = _two_vars()
        action = Action("a", plan=Plan(
            ("and", ("eq_const", "v0", 1),
             ("or", ("eq_const", "v1", 99), ("eq_const", "v1", 2))),
            [("set_const", "v0", 0)],
        ))
        analysis = _analyze(action, variables)
        assert analysis.status == "compiled"
        dead = [d for d in analysis.diagnostics if d.code == "DC501"]
        assert len(dead) == 1
        assert dead[0].severity is Severity.WARNING
        assert "99" in dead[0].message

    def test_dc502_tautological_subexpression(self):
        variables = _two_vars()
        action = Action("a", plan=Plan(
            ("and", ("eq_const", "v0", 1),
             ("or", ("eq_const", "v1", 0), ("ne_const", "v1", 0))),
            [("set_const", "v0", 0)],
        ))
        codes = _codes(_analyze(action, variables))
        assert "DC502" in codes and "DC501" not in codes

    def test_dc502_tautological_root(self):
        variables = _two_vars()
        action = Action("a", plan=Plan(
            ("or", ("eq_const", "v0", 0), ("ne_const", "v0", 0)),
            [("set_const", "v0", 0)],
        ))
        analysis = _analyze(action, variables)
        roots = [d for d in analysis.diagnostics if d.code == "DC502"]
        assert len(roots) == 1 and "guard" in roots[0].message

    def test_dc301_proven_dead_without_dc501(self):
        variables = _two_vars()
        action = Action("dead", plan=Plan(
            ("and", ("eq_const", "v0", 0), ("eq_const", "v0", 1)),
            [("set_const", "v1", 0)],
        ))
        analysis = _analyze(action, variables)
        dead = [d for d in analysis.diagnostics if d.code == "DC301"]
        assert len(dead) == 1
        assert dead[0].severity is Severity.ERROR
        assert not dead[0].sampled  # proven, even though it's a lint
        # an unsatisfiable root does not also flag its conjuncts dead
        assert "DC501" not in _codes(analysis)
        assert analysis.satisfiable is False

    def test_dc303_proven_stutter(self):
        variables = _two_vars()
        action = Action(
            "stutter",
            plan=Plan(("eq_const", "v0", 1), [("copy", "v0", "v0")]),
        )
        analysis = _analyze(action, variables)
        assert analysis.changes_state is False
        assert "DC303" in _codes(analysis)

    @pytest.mark.parametrize("guard, reads", [
        # from v0 = 1 the last value is the current one: only the first
        # successor changes v0
        (("eq_const", "v0", 1), {"v0"}),
        # no successor keeps the old v0, so the choice does not read it
        (("eq_const", "v1", 1), {"v1"}),
    ])
    def test_set_any_frame_covers_every_successor(self, guard, reads):
        variables = _two_vars()
        action = Action(
            "lie", plan=Plan(guard, [("set_any", "v0", (0, 1))]),
        )
        analysis = _analyze(action, variables)
        assert (analysis.reads, analysis.writes) == (reads, {"v0"})
        assert (action.reads, action.writes) == (reads, {"v0"})
        assert analysis.changes_state is True
        assert analysis.diagnostics == ()

    def test_dc512_uncompilable_plan(self):
        variables = _two_vars()
        action = Action(
            "a",
            plan=Plan(("eq_const", "nope", 0), [("set_const", "v0", 1)]),
        )
        analysis = _analyze(action, variables)
        assert analysis.status == "uncompilable"
        assert _codes(analysis) == ["DC512"]
        assert not analysis.covers_frames


# ---------------------------------------------------------------------------
# exact frames: proven on spaces no probe can enumerate
# ---------------------------------------------------------------------------

class TestProvenFrames:
    """The analyzer checks the frame a planned action derives from its
    plan against the exact frame; the drifted frames below stand in for
    a broken derivation."""

    def _wide_action(self, reads=None, writes=None):
        variables = [Variable(f"v{i}", [0, 1, 2, 3]) for i in range(30)]
        action = Action(
            "wide",
            plan=Plan(("eq_var", "v0", "v1"), [("set_const", "v2", 1)]),
        )
        if reads is not None:
            action.reads, action.writes = frozenset(reads), frozenset(writes)
        return action, variables

    def test_exact_frame_on_huge_space(self):
        action, variables = self._wide_action()
        assert (action.reads, action.writes) == ({"v0", "v1"}, {"v2"})
        analysis = _analyze(action, variables)
        assert analysis.reads == frozenset({"v0", "v1"})
        assert analysis.writes == frozenset({"v2"})
        assert analysis.diagnostics == ()
        assert {p.rule for p in analysis.proofs} >= {
            "frame-soundness", "guard-satisfiability",
        }

    def test_undeclared_read_proven(self):
        action, variables = self._wide_action({"v0"}, {"v2"})
        analysis = _analyze(action, variables)
        findings = [d for d in analysis.diagnostics if d.code == "DC101"]
        assert [d.variables for d in findings] == [("v1",)]
        assert findings[0].severity is Severity.ERROR
        assert not findings[0].sampled  # 4^30 states, still a proof

    def test_undeclared_write_proven(self):
        action, variables = self._wide_action({"v0", "v1"}, frozenset())
        analysis = _analyze(action, variables)
        findings = [d for d in analysis.diagnostics if d.code == "DC102"]
        assert [d.variables for d in findings] == [("v2",)]
        assert not findings[0].sampled

    def test_masked_but_never_overwritten_proven(self):
        # v3 is declared written but no effect assigns it: the successor
        # memo would mask a carried variable
        action, variables = self._wide_action({"v0", "v1"}, {"v2", "v3"})
        analysis = _analyze(action, variables)
        findings = [d for d in analysis.diagnostics if d.code == "DC101"]
        assert [d.variables for d in findings] == [("v3",)]
        assert "ever assigns" in findings[0].message


def _planned_actions(target):
    actions = list(target.program.actions)
    if target.faults is not None:
        actions += list(target.faults.actions)
    return [
        a for a in actions
        if getattr(a, "plan", None) is not None and a._base is None
    ]


class TestFrameProperty:
    """IR-inferred frames == differential-probe frames, exhaustively,
    for every planned bundled action."""

    def test_ir_frames_match_differential_frames(self):
        checked = 0
        for target in all_lint_targets():
            planned = _planned_actions(target)
            if not planned:
                continue
            variables = target.program.variables
            probe = build_probe(variables, limit=1 << 15)
            assert probe.exhaustive, (
                f"{target.name}: bundled space ({probe.space_size}) grew "
                f"past the exhaustive-probe budget; raise the limit so "
                f"this property stays a proof"
            )
            schema = Schema.of(tuple(v.name for v in variables))
            for action in planned:
                analysis = analyze_action(
                    action, variables, schema, target=target.name
                )
                assert analysis.compiled, (target.name, action.name)
                reads, writes, complete = infer_frame(
                    action, variables, probe,
                    pair_budget=10 ** 9, alt_limit=0,
                )
                assert complete, (target.name, action.name)
                assert analysis.reads == reads, (target.name, action.name)
                assert analysis.writes == writes, (target.name, action.name)
                checked += 1
        assert checked >= 40  # token ring + byzantine + bundled faults


# ---------------------------------------------------------------------------
# catalogue self-lint: proven, clean, and coverage-enforced
# ---------------------------------------------------------------------------

class TestCatalogueSelfLint:
    def test_every_planned_action_is_proven(self):
        for target in all_lint_targets():
            planned = _planned_actions(target)
            if not planned:
                continue
            report = lint(target)
            assert not report.errors(), (target.name, report.errors())
            for action in planned:
                for rule in ("frame-soundness", "guard-satisfiability"):
                    assert report.proofs_for(rule, action=action.name), (
                        target.name, action.name, rule
                    )
                sampled = [
                    d for d in report.diagnostics
                    if d.action == action.name and d.sampled
                    and (d.code.startswith("DC1") or d.code.startswith("DC3"))
                ]
                assert not sampled, (target.name, action.name, sampled)

    def test_uncovered_modules_flags_new_scenarios(self):
        assert uncovered_modules(["token_ring", "shiny_new"]) == ["shiny_new"]
        assert uncovered_modules(["oral_messages"]) == []  # exempt
        assert uncovered_modules() == []  # the live catalogue is covered

    def test_all_lint_targets_refuses_uncovered_module(self, monkeypatch):
        monkeypatch.setattr(
            programs, "program_modules",
            lambda: ("token_ring", "brand_new_scenario"),
        )
        with pytest.raises(CatalogueCoverageError) as err:
            all_lint_targets()
        assert "brand_new_scenario" in str(err.value)

    def test_program_modules_lists_scenarios(self):
        modules = programs.program_modules()
        assert "token_ring" in modules and "byzantine" in modules
        assert "oral_messages" in modules


# ---------------------------------------------------------------------------
# lint certificates in the content-addressed store
# ---------------------------------------------------------------------------

def _small_program(flavor=0):
    variables = [Variable("a", [0, 1, 2]), Variable("b", [0, 1, 2])]
    stable = Action(
        "stable",
        plan=Plan(("ne_const", "a", 0), [("set_const", "a", 0)]),
    )
    value = 1 if flavor else 2
    edited = Action(
        "edited",
        plan=Plan(("ne_const", "b", value), [("set_const", "b", value)]),
    )
    return Program(variables, [stable, edited], name=f"small{flavor}")


class TestLintStore:
    def test_warm_report_replays_identically(self):
        store_backend.set_active_store(":memory:")
        target = LintTarget(name="small", program=_small_program())
        cold = lint(target)
        assert store_backend.stats().get("puts", 0) > 0
        warm = lint(target)
        assert store_backend.stats().get("lint_report_hits") == 1
        assert warm.to_dict() == cold.to_dict()

    def test_single_action_edit_replays_the_rest(self):
        store_backend.set_active_store(":memory:")
        lint(LintTarget(name="small", program=_small_program(0)))
        store_backend.reset_stats()
        symbolic.clear_symbolic_caches()  # force the store, not the memo
        lint(LintTarget(name="small", program=_small_program(1)))
        stats = store_backend.stats()
        # the edited action missed, the untouched one replayed
        assert stats.get("lint_action_hits") == 1
        assert stats.get("lint_report_hits") is None

    def test_store_failures_degrade_to_cold(self):
        class Exploding(store_backend.MemoryStore):
            def get(self, key):
                raise RuntimeError("backend down")

            def put(self, key, payload):
                raise RuntimeError("backend down")

        store_backend.set_active_store(Exploding())
        target = LintTarget(name="small", program=_small_program())
        report = lint(target)  # must not raise
        assert not report.errors()


class TestCacheDrain:
    def test_cold_run_after_drain_is_identical(self):
        from repro.programs import token_ring

        model = token_ring.build(3)
        target = LintTarget(
            name="token_ring", program=model.ring, spec=model.spec,
            invariant=model.invariant, faults=model.faults,
        )
        first = lint(target).to_dict()
        assert symbolic._ANALYSES  # the pass populated its memo
        clear_all_caches()
        assert not symbolic._ANALYSES
        assert not symbolic._TRUTH_TABLES
        second = lint(target).to_dict()
        assert first == second

    def test_memo_serves_repeat_analyses(self):
        from repro.programs import token_ring

        model = token_ring.build(3)
        variables = model.ring.variables
        schema = Schema.of(tuple(v.name for v in variables))
        action = model.ring.actions[0]
        first = analyze_action(action, variables, schema, target="t")
        second = analyze_action(action, variables, schema, target="t")
        assert first is second


# ---------------------------------------------------------------------------
# SARIF reporter + CLI surface
# ---------------------------------------------------------------------------

class TestSarif:
    def _reports(self):
        report = LintReport(target="demo")
        report.add(Diagnostic(
            code="DC101", severity=Severity.ERROR, rule="frame-soundness",
            message="boom", target="demo", action="a1",
            evidence="v0=1 (other variables arbitrary)",
        ))
        report.add(Diagnostic(
            code="DC303", severity=Severity.INFO,
            rule="guard-satisfiability",
            message="stutter", target="demo", action="a2",
        ))
        report.apply_suppressions(
            [Suppression(code="DC303", justification="intentional loop")]
        )
        report.add_proofs([Proof(
            rule="frame-soundness", method="ir-exact",
            detail="declared frame covers the exact IR frame",
            target="demo", action="a1",
        )])
        return [report]

    def test_sarif_document_shape(self):
        out = io.StringIO()
        render_sarif(self._reports(), out)
        doc = json.loads(out.getvalue())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "DC101", "DC303",
        ]
        by_rule = {r["ruleId"]: r for r in run["results"]}
        assert by_rule["DC101"]["level"] == "error"
        fqn = by_rule["DC101"]["locations"][0]["logicalLocations"][0]
        assert fqn["fullyQualifiedName"] == "demo::a1"
        assert by_rule["DC303"]["level"] == "note"
        assert by_rule["DC303"]["suppressions"][0]["justification"] == (
            "intentional loop"
        )
        assert run["properties"]["summary"]["proven"] == 1


class TestLintCliSymbolic:
    def test_format_sarif(self):
        out = io.StringIO()
        rc = cli.main(["lint", "token_ring", "--format", "sarif"], out=out)
        assert rc == 0
        doc = json.loads(out.getvalue())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_no_symbolic_flag(self):
        out = io.StringIO()
        rc = cli.main(["lint", "token_ring", "--no-symbolic"], out=out)
        assert rc == 0
        assert "proven fact(s)" not in out.getvalue()

    def test_store_warm_run_replays(self, tmp_path):
        spec = str(tmp_path / "lint-certs.sqlite")
        cold_out = io.StringIO()
        assert cli.main(
            ["lint", "token_ring", "tmr", "--store", spec], out=cold_out
        ) == 0
        assert "misses" in cold_out.getvalue()
        store_backend.set_active_store(None)
        store_backend.reset_stats()
        warm_out = io.StringIO()
        assert cli.main(
            ["lint", "token_ring", "tmr", "--store", spec], out=warm_out
        ) == 0
        text = warm_out.getvalue()
        assert "0 misses" in text and "lint-reports" in text
        # warm text output is identical apart from the stats line
        strip = lambda s: [
            line for line in s.splitlines()
            if not line.startswith("store:")
        ]
        assert strip(warm_out.getvalue()) == strip(cold_out.getvalue())

    def test_proven_facts_in_text_summary(self):
        out = io.StringIO()
        assert cli.main(["lint", "token_ring"], out=out) == 0
        assert "proven fact(s)" in out.getvalue()
