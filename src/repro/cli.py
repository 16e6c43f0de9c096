"""Command-line verifier for the program catalogue.

Usage::

    python -m repro list
    python -m repro verify memory_access
    python -m repro verify tmr byzantine
    python -m repro verify --all
    python -m repro campaign token_ring --trials 20 --seed 0 --jsonl out.jsonl
    python -m repro campaign --report out.jsonl   # re-print a recorded verdict
    python -m repro monitor --replay out.jsonl    # detector-bank replay
    python -m repro bench            # quick perf smoke (CI scale)
    python -m repro bench --full     # the full recorded suite
    python -m repro lint --all --strict   # static pre-flight, CI gate
    python -m repro lint tmr --json       # machine-readable diagnostics
    python -m repro serve campaign.db --port 7357
    python -m repro worker --store http://127.0.0.1:7357   # pull jobs
    python -m repro campaign byzantine --trials 64 \\
        --distributed http://127.0.0.1:7357   # shard trials over workers
    python -m repro census token_ring --size 4 --shards 8 \\
        --distributed http://127.0.0.1:7357   # shard a code-space census

(``repro`` installed via ``pip install -e .`` works in place of
``python -m repro``.)

``verify`` runs every tolerance/detector/corrector certificate a
catalogue entry registers and prints the PASS/FAIL lines with
counterexamples — a one-command reproduction of each construction in
the paper.  ``campaign`` sweeps seeded random fault schedules over a
simulated scenario and reports the observed tolerance-class mix (see
:mod:`repro.campaigns`).  ``monitor`` replays a recorded campaign log
through the online detector-bank runtime (:mod:`repro.monitoring`) and
prints the syndrome/latency telemetry.  ``bench`` runs the perf-core benchmark
harness (``benchmarks/record.py``) from a source checkout — quick mode
by default, ``--full`` for the numbers recorded in ``BENCH_core.json``.
``lint`` runs the static analyzer (:mod:`repro.analysis`) over the same
catalogue — frame soundness, interference races, dead guards, spec
well-formedness — without exhaustive exploration; ``--strict`` makes
any unsuppressed error fail the command, which is how CI gates every
bundled program.  ``serve`` exposes the active store (and a job board)
over HTTP; ``worker`` pulls trial batches and census shards from a
served job queue; ``campaign --distributed URL`` and ``census
--distributed URL`` shard their work over that queue with results
byte-identical to the in-process paths (see
:mod:`repro.campaigns.distributed`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Iterable, List, Tuple

from .core import (
    CheckResult,
    TRUE,
    is_corrector,
    is_detector,
    is_failsafe_tolerant,
    is_masking_tolerant,
    is_nonmasking_tolerant,
)

__all__ = ["main", "CATALOGUE"]

#: name -> callable returning (description, [CheckResult factories])
CatalogueEntry = Callable[[], Tuple[str, List[Callable[[], CheckResult]]]]


def _memory_access():
    from .programs import memory_access

    m = memory_access.build()
    checks = [
        lambda: is_failsafe_tolerant(
            m.pf, m.fault_before_witness, m.spec, m.S_pf, m.T_pf
        ),
        lambda: is_nonmasking_tolerant(
            m.pn, m.fault_anytime, m.spec, m.S_pn, m.T_pn
        ),
        lambda: is_masking_tolerant(
            m.pm, m.fault_before_witness, m.spec, m.S_pm, m.T_pm
        ),
    ]
    return "memory access ladder (paper Figures 1-3)", checks


def _tmr():
    from .programs import tmr

    t = tmr.build()
    checks = [
        lambda: is_detector(
            t.detector_eval, t.witness_dr, t.detection_dr, t.span_inputs
        ),
        lambda: is_failsafe_tolerant(
            t.dr_ir, t.faults, t.spec, t.invariant, t.span
        ),
        lambda: is_masking_tolerant(
            t.tmr, t.faults, t.spec, t.invariant, t.span
        ),
    ]
    return "triple modular redundancy (paper §6.1)", checks


def _byzantine():
    from .programs import byzantine

    b = byzantine.build()
    checks = [
        lambda: is_failsafe_tolerant(
            b.failsafe, b.faults, b.spec, b.invariant, b.span
        ),
        lambda: is_masking_tolerant(
            b.masking, b.faults, b.spec, b.invariant, b.span
        ),
    ]
    return "Byzantine agreement, n=4 f=1 (paper §6.2)", checks


def _token_ring():
    from .programs import token_ring

    r = token_ring.build(4)
    checks = [
        lambda: is_nonmasking_tolerant(
            r.ring, r.faults, r.spec, r.invariant, TRUE
        ),
        lambda: is_corrector(r.ring, r.invariant, r.invariant, TRUE),
    ]
    return "Dijkstra's K-state token ring (self-stabilization)", checks


def _mutual_exclusion():
    from .core import ToleranceRequirement, is_multitolerant
    from .programs import mutual_exclusion

    x = mutual_exclusion.build(3)
    checks = [
        lambda: is_masking_tolerant(
            x.tolerant, x.faults, x.spec, x.invariant, x.span
        ),
        lambda: is_multitolerant(
            x.multitolerant, x.spec_strong, x.invariant,
            (
                ToleranceRequirement(x.faults, "masking", x.span),
                ToleranceRequirement(
                    x.duplication, "masking", x.span_duplication
                ),
            ),
        ),
    ]
    return "token mutual exclusion (+ multitolerance)", checks


def _leader_election():
    from .programs import leader_election

    e = leader_election.build((3, 1, 2))
    checks = [
        lambda: is_nonmasking_tolerant(
            e.program, e.faults, e.spec, e.invariant, TRUE
        ),
    ]
    return "max-propagation leader election", checks


def _termination_detection():
    from .programs import termination_detection

    t = termination_detection.build(3)
    checks = [
        lambda: is_detector(t.detector, t.done, t.terminated, t.from_),
    ]
    return "scan-based termination detection (a pure detector)", checks


def _distributed_reset():
    from .programs import distributed_reset

    d = distributed_reset.build(3, 2)
    checks = [
        lambda: is_nonmasking_tolerant(
            d.program, d.faults, d.spec, d.invariant, d.span
        ),
    ]
    return "session-number distributed reset (a distributed corrector)", checks


def _tree_maintenance():
    from .programs import tree_maintenance

    t = tree_maintenance.build()
    checks = [
        lambda: is_nonmasking_tolerant(
            t.program, t.faults, t.spec, t.invariant, TRUE
        ),
        lambda: is_corrector(t.program, t.invariant, t.invariant, TRUE),
    ]
    return "self-stabilizing BFS spanning tree (tree maintenance)", checks


def _barrier():
    from .programs import barrier

    b = barrier.build(3)
    checks = [
        lambda: is_failsafe_tolerant(
            b.intolerant, b.faults, b.spec, b.invariant, b.span
        ),
        lambda: is_masking_tolerant(
            b.tolerant, b.faults, b.spec, b.invariant, b.span
        ),
    ]
    return "barrier computation with a re-announce corrector", checks


def _failure_detector():
    from .core.fairness import check_leads_to
    from .failure_detectors import build

    fd = build(limit=2)

    def completeness():
        ts = fd.faults.system(fd.program, fd.from_)
        return check_leads_to(
            ts, fd.crashed, fd.suspected,
            description="completeness: crashed leads-to suspected",
        )

    checks = [
        lambda: is_detector(fd.program, fd.suspected, fd.timed_out, fd.from_),
        completeness,
    ]
    return "heartbeat failure detector (Chandra-Toueg comparison)", checks


CATALOGUE: Dict[str, CatalogueEntry] = {
    "memory_access": _memory_access,
    "tmr": _tmr,
    "byzantine": _byzantine,
    "token_ring": _token_ring,
    "mutual_exclusion": _mutual_exclusion,
    "leader_election": _leader_election,
    "termination_detection": _termination_detection,
    "distributed_reset": _distributed_reset,
    "tree_maintenance": _tree_maintenance,
    "barrier": _barrier,
    "failure_detector": _failure_detector,
}


def _verify(names: Iterable[str], out=sys.stdout) -> int:
    failures = 0
    for name in names:
        try:
            entry = CATALOGUE[name]
        except KeyError:
            print(f"unknown catalogue entry {name!r}; try 'list'", file=out)
            return 2
        description, checks = entry()
        print(f"== {name}: {description}", file=out)
        for check in checks:
            result = check()
            print(str(result), file=out)
            if not result:
                failures += 1
        print(file=out)
    if failures:
        print(f"{failures} check(s) FAILED", file=out)
        return 1
    print("all checks passed", file=out)
    return 0


def _store_stats_line(out=sys.stdout) -> None:
    """One summary line of certificate-store traffic, printed after a
    verification run when a store is active.  Goes to ``out`` so scripts
    (and the CI warm-cache smoke job) can grep it."""
    from .store import backend as store_backend

    if store_backend.active_store() is None:
        return
    stats = store_backend.stats()
    line = (
        f"store: {stats.get('hits', 0)} hits, "
        f"{stats.get('misses', 0)} misses, {stats.get('puts', 0)} puts"
    )
    replayed = []
    for event, label in (
        ("verdict_hits", "verdicts"),
        ("obligation_hits", "obligations"),
        ("obligations_reused", "frame-reused"),
        ("graph_hits", "graphs"),
        ("graph_reassembled", "reassembled"),
        ("lint_report_hits", "lint-reports"),
        ("lint_action_hits", "lint-actions"),
    ):
        count = stats.get(event, 0)
        if count:
            replayed.append(f"{count} {label}")
    if replayed:
        line += " (" + ", ".join(replayed) + ")"
    print(line, file=out)


def _serve(args, out=sys.stdout) -> int:
    """Run the blocking cache front end over a local artifact store."""
    from .store.serve import serve

    try:
        serve(
            args.store, host=args.host, port=args.port,
            announce=lambda message: print(message, file=out),
        )
    except OSError as exc:
        print(f"cannot serve {args.store!r}: {exc}", file=out)
        return 2
    return 0


def _campaign(args, out=sys.stdout) -> int:
    from .campaigns import Campaign, SCENARIOS

    if args.report:
        from .campaigns import format_verdict, load_summary

        try:
            summary = load_summary(args.report)
        except (OSError, ValueError) as exc:
            print(f"cannot read campaign log {args.report!r}: {exc}", file=out)
            return 2
        if summary is None:
            print(
                f"no campaign_end summary in {args.report!r} "
                "(incomplete or non-campaign log)",
                file=out,
            )
            return 1
        print(format_verdict(summary), file=out)
        return 0

    if args.list or not args.scenario:
        for name, scenario in sorted(SCENARIOS.items()):
            print(f"{name:16s} {scenario.description}", file=out)
        return 0 if args.list else 2
    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        print(
            f"unknown campaign scenario {args.scenario!r}; "
            f"known scenarios: {known}",
            file=out,
        )
        return 2

    try:
        stream = open(args.jsonl, "w", encoding="utf-8") if args.jsonl else None
    except OSError as exc:
        print(f"cannot write JSONL log {args.jsonl!r}: {exc}", file=out)
        return 2
    distributed = None
    try:
        if args.distributed:
            from .campaigns import DistributedCampaign

            distributed = DistributedCampaign(
                SCENARIOS[args.scenario],
                trials=args.trials,
                seed=args.seed,
                budget=args.budget,
                horizon=args.horizon,
                trial_timeout=args.trial_timeout,
                stream=stream,
                base_url=args.distributed,
                batch_size=args.batch_size,
                target_lease_s=args.target_lease,
                deadline_s=args.deadline,
                fallback_workers=args.workers,
            )
            campaign = distributed.campaign
            result = distributed.run()
        else:
            campaign = Campaign(
                SCENARIOS[args.scenario],
                trials=args.trials,
                seed=args.seed,
                budget=args.budget,
                horizon=args.horizon,
                trial_timeout=args.trial_timeout,
                stream=stream,
                workers=args.workers,
            )
            result = campaign.run()
    finally:
        if stream is not None:
            stream.close()
    print(result.format(), file=out)
    if distributed is not None:
        if distributed.degraded:
            print(
                f"   distributed: server {args.distributed!r} unavailable, "
                "ran in-process",
                file=out,
            )
        else:
            print(
                f"   distributed: {distributed.batches_total} batches, "
                f"{distributed.batches_from_store} from store",
                file=out,
            )
    if args.jsonl:
        print(f"   telemetry: {args.jsonl} "
              f"({len(campaign.log.events)} events)", file=out)
    return 0


def _worker(args, out=sys.stdout) -> int:
    """Run a pull-based job worker against a 'repro serve' front end."""
    from .campaigns.distributed import worker_loop

    queues = tuple(q for q in args.queues.split(",") if q)
    if not queues:
        print("no queues to poll; pass --queues campaign,census", file=out)
        return 2
    announce = (lambda message: print(message, file=out)) \
        if args.verbose else None
    try:
        handled = worker_loop(
            args.store,
            queues=queues,
            worker_id=args.id,
            once=args.once,
            lease_s=args.lease,
            announce=announce,
        )
    except KeyboardInterrupt:
        print("worker stopped", file=out)
        return 0
    print(f"worker processed {handled} job(s)", file=out)
    return 0


def _census(args, out=sys.stdout) -> int:
    """Exact reachable-state census, optionally sharded over workers."""
    from .campaigns.distributed import (
        CENSUS_WORKLOADS, build_census_workload, distributed_census,
    )

    if args.workload not in CENSUS_WORKLOADS:
        known = ", ".join(sorted(CENSUS_WORKLOADS))
        print(
            f"unknown census workload {args.workload!r}; known: {known}",
            file=out,
        )
        return 2
    if args.workload == "token_ring":
        params = {"size": args.size, "k": args.k}
    else:
        params = {"k": args.k if args.k is not None else 3}
    try:
        # a parameter the builder refuses is a usage error, not a census
        build_census_workload(args.workload, params)
    except ValueError as exc:
        print(f"census {args.workload}{params}: {exc}", file=out)
        return 2
    if args.store is not None:
        from .store import backend as store_backend

        store_backend.set_active_store(args.store)
    try:
        reach, stats = distributed_census(
            args.workload,
            params=params,
            shards=args.shards,
            base_url=args.distributed,
            max_states=args.max_states,
            deadline_s=args.deadline,
        )
    except (RuntimeError, TimeoutError) as exc:
        print(f"census failed: {exc}", file=out)
        return 1
    print(
        f"census {args.workload}{params}: {reach.states} states "
        f"({reach.levels} levels, {reach.edges} successor rows)",
        file=out,
    )
    mode = "in-process" if stats["degraded"] else "distributed"
    print(
        f"   shards: {stats['shards']} ({mode}), "
        f"{stats['from_store']} from store, {stats['computed']} computed",
        file=out,
    )
    return 0


def _monitor(args, out=sys.stdout) -> int:
    """Replay recorded telemetry through the online monitoring runtime.

    ``--replay`` takes a ``repro campaign --jsonl`` log; ``--events``
    takes a raw runtime-event JSONL file (``{"time", "kind",
    "writes"}`` objects).  Either way the events stream through the
    frame-aware incremental path and the run ends with the bank's
    telemetry report (fire counts, syndrome transitions, detection
    latency percentiles, events/sec).
    """
    from .monitoring import (
        MonitorRuntime,
        SyndromeDecoder,
        TelemetrySink,
        campaign_bank,
        format_monitor_summary,
        iter_campaign_events,
        normalize_event,
    )

    if not args.replay and not args.events:
        print("nothing to monitor; pass --replay LOG or --events LOG", file=out)
        return 2

    monitors = [m for m in args.monitors.split(",") if m]
    bank = campaign_bank(monitors)
    decoder = SyndromeDecoder.for_bank(bank)
    for j, detector in enumerate(bank.detector_names):
        decoder.register(1 << j, name=f"correct[{detector}]")

    try:
        stream = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        print(f"cannot write telemetry {args.out!r}: {exc}", file=out)
        return 2
    try:
        telemetry = TelemetrySink(bank.detector_names, stream=stream)
        runtime = MonitorRuntime(bank, decoder=decoder, telemetry=telemetry)
        if args.replay:
            events = iter_campaign_events(args.replay)
        else:
            from .campaigns import read_events

            events = (
                event
                for record in read_events(args.events)
                for event in [normalize_event(record)]
                if event is not None
            )
        try:
            summary = runtime.run_sync(events)
        except (OSError, ValueError, KeyError) as exc:
            print(f"replay failed: {type(exc).__name__}: {exc}", file=out)
            return 2
        telemetry.write_summary(summary["events"], summary["wall_s"])
    finally:
        if stream is not None:
            stream.close()
    print(format_monitor_summary(summary), file=out)
    print(
        f"   final syndrome: {runtime.bank.describe(runtime.syndrome)}",
        file=out,
    )
    if args.out:
        print(f"   telemetry: {args.out}", file=out)
    return 0


def _bench(args, out=sys.stdout) -> int:
    """Run the perf-core benchmark harness in place.

    The harness lives in ``benchmarks/record.py`` next to the source
    tree (it is a measurement script, not library code), so ``bench``
    only works from a checkout — an installed-only environment gets a
    clear error instead of a stack trace.
    """
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "benchmarks" / "record.py"
    if not script.is_file():
        print(
            f"benchmark harness not found at {script} — "
            "'repro bench' needs a source checkout",
            file=out,
        )
        return 2
    spec = importlib.util.spec_from_file_location("_repro_bench_record", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    forwarded: List[str] = []
    if not args.full:
        forwarded.append("--quick")
    if args.repeat is not None:
        forwarded += ["--repeat", str(args.repeat)]
    if args.backend is not None:
        forwarded += ["--backend", args.backend]
    if args.cold:
        forwarded.append("--cold")
    if args.warm:
        forwarded.append("--warm")
    if args.store is not None:
        forwarded += ["--store", args.store]
    if args.output is not None:
        forwarded += ["--output", args.output]
    elif not args.full:
        # quick numbers are measured at a smaller scale — don't clobber
        # the committed full-scale BENCH_core.json with them
        import os
        import tempfile

        fd, path = tempfile.mkstemp(prefix="repro_bench_quick_", suffix=".json")
        os.close(fd)
        forwarded += ["--output", path]
    return module.main(forwarded)


def _lint(args, out=sys.stdout) -> int:
    from .analysis import (
        LINT_CATALOGUE,
        CatalogueCoverageError,
        LintConfig,
        lint,
        lint_targets,
        render_json,
        render_sarif,
        render_text,
        uncovered_modules,
    )

    names = list(LINT_CATALOGUE) if args.all else args.names
    if not names:
        print("nothing to lint; pass entry names or --all", file=out)
        return 2

    if args.store is not None:
        from .store import backend as store_backend

        store_backend.set_active_store(args.store)

    if args.all:
        # the coverage contract behind --all: refuse to call the whole
        # catalogue clean while a bundled scenario has no lint entry
        missing = uncovered_modules()
        if missing:
            print(CatalogueCoverageError(
                f"scenario module(s) {missing} in repro.programs have "
                f"no lint catalogue entry; add a lint_entry(..., "
                f"covers=...) builder or an EXEMPT_MODULES reason"
            ), file=out)
            return 2

    config = LintConfig(
        probe_limit=args.probe_limit,
        seed=args.seed,
        suggest_frames=args.suggest_frames,
        symbolic=not args.no_symbolic,
    )
    reports = []
    for name in names:
        if name not in LINT_CATALOGUE:
            print(f"unknown catalogue entry {name!r}; try 'list'", file=out)
            return 2
        for target in lint_targets(name):
            reports.append(lint(target, config))

    fmt = "json" if args.json else args.format
    if fmt == "json":
        render_json(reports, out)
    elif fmt == "sarif":
        render_sarif(reports, out)
    else:
        render_text(reports, out, verbose=args.verbose)
        # the stats line is text-only: appending it to a JSON/SARIF
        # document would corrupt it for downstream parsers
        _store_stats_line(out)

    if args.strict and any(report.errors() for report in reports):
        return 1
    return 0


def main(argv: List[str] = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="verify the paper's constructions from the command line",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list catalogue entries")
    verify_parser = subparsers.add_parser(
        "verify", help="run the certificates for catalogue entries"
    )
    verify_parser.add_argument("names", nargs="*", help="entries to verify")
    verify_parser.add_argument(
        "--all", action="store_true", help="verify the whole catalogue"
    )
    verify_parser.add_argument(
        "--store", metavar="SPEC", default=None,
        help="certificate store to read/write (a .sqlite path, a "
             "directory, ':memory:', or an http URL of 'repro serve'; "
             "default: $REPRO_STORE if set)",
    )
    campaign_parser = subparsers.add_parser(
        "campaign",
        help="sweep seeded random fault schedules over a simulated scenario",
    )
    campaign_parser.add_argument(
        "scenario", nargs="?", help="scenario name (omit with --list)"
    )
    campaign_parser.add_argument(
        "--trials", type=int, default=20, help="number of seeded trials"
    )
    campaign_parser.add_argument(
        "--seed", type=int, default=0, help="master campaign seed"
    )
    campaign_parser.add_argument(
        "--jsonl", metavar="PATH", help="write the JSONL event log here"
    )
    campaign_parser.add_argument(
        "--budget", type=int, default=None,
        help="fault events per trial (default: scenario's)",
    )
    campaign_parser.add_argument(
        "--horizon", type=float, default=None,
        help="simulated-time horizon per trial (default: scenario's)",
    )
    campaign_parser.add_argument(
        "--trial-timeout", type=float, default=60.0,
        help="wall-clock seconds per trial before outcome=timeout",
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for trials (same verdicts for any count)",
    )
    campaign_parser.add_argument(
        "--list", action="store_true", help="list campaign scenarios"
    )
    campaign_parser.add_argument(
        "--report", metavar="PATH",
        help="print the verdict recorded in an existing JSONL log "
             "(no trials are run)",
    )
    campaign_parser.add_argument(
        "--distributed", metavar="URL", default=None,
        help="run trial batches through a 'repro serve' job queue at "
             "this URL (verdicts identical to in-process; degrades to "
             "in-process if the server is unreachable)",
    )
    campaign_parser.add_argument(
        "--batch-size", type=int, default=None,
        help="trials per distributed batch (default: adaptive toward "
             "--target-lease seconds per batch)",
    )
    campaign_parser.add_argument(
        "--target-lease", type=float, default=5.0,
        help="target seconds of work per adaptive distributed batch",
    )
    campaign_parser.add_argument(
        "--deadline", type=float, default=None,
        help="abort the distributed run after this many wall-clock "
             "seconds with batches still outstanding",
    )
    monitor_parser = subparsers.add_parser(
        "monitor",
        help="replay recorded telemetry through the detector-bank runtime",
    )
    monitor_parser.add_argument(
        "--replay", metavar="PATH",
        help="campaign JSONL log to replay (from 'repro campaign --jsonl')",
    )
    monitor_parser.add_argument(
        "--events", metavar="PATH",
        help="raw runtime-event JSONL file to ingest",
    )
    monitor_parser.add_argument(
        "--monitors", default="safety,legitimacy",
        help="comma-separated monitor/variable names the bank tracks",
    )
    monitor_parser.add_argument(
        "--out", metavar="PATH",
        help="write structured monitoring telemetry (JSONL) here",
    )
    bench_parser = subparsers.add_parser(
        "bench",
        help="run the perf-core benchmarks (quick smoke by default)",
    )
    bench_parser.add_argument(
        "--full", action="store_true",
        help="full suite at recorded scale (default: --quick smoke)",
    )
    bench_parser.add_argument(
        "--repeat", type=int, default=None,
        help="repetitions per suite (best-of; harness default)",
    )
    bench_parser.add_argument(
        "--output", default=None,
        help="where to write the JSON record (harness default)",
    )
    bench_parser.add_argument(
        "--backend", choices=("auto", "interpreted"),
        default=None,
        help="kernel backend for every suite (default: auto selection)",
    )
    bench_parser.add_argument(
        "--cold", action="store_true",
        help="run with an empty certificate store attached (measures "
             "population overhead)",
    )
    bench_parser.add_argument(
        "--warm", action="store_true",
        help="pre-populate the certificate store, then time warm runs "
             "served from it",
    )
    bench_parser.add_argument(
        "--store", metavar="SPEC", default=None,
        help="store spec for --cold/--warm (default: a temporary sqlite "
             "file per run)",
    )
    serve_parser = subparsers.add_parser(
        "serve",
        help="serve a local certificate store over HTTP for other "
             "processes/machines",
    )
    serve_parser.add_argument(
        "store", help="store spec to serve (a .sqlite path, a directory, "
                      "or ':memory:')",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=7357, help="bind port"
    )
    worker_parser = subparsers.add_parser(
        "worker",
        help="pull and run campaign/census jobs from a 'repro serve' "
             "job queue",
    )
    worker_parser.add_argument(
        "--store", metavar="URL", required=True,
        help="base URL of the 'repro serve' front end to pull from",
    )
    worker_parser.add_argument(
        "--queues", default="campaign,census",
        help="comma-separated queue names to poll (in priority order)",
    )
    worker_parser.add_argument(
        "--id", default=None,
        help="worker identity shown in leases (default: host-pid)",
    )
    worker_parser.add_argument(
        "--once", action="store_true",
        help="exit at the first sweep that finds every queue empty "
             "(instead of polling forever)",
    )
    worker_parser.add_argument(
        "--lease", type=float, default=60.0,
        help="lease seconds requested per job; a worker that dies is "
             "re-leased after this long",
    )
    worker_parser.add_argument(
        "--verbose", action="store_true",
        help="print a line per completed/failed job",
    )
    census_parser = subparsers.add_parser(
        "census",
        help="exact reachable-state census in packed-code space, "
             "optionally sharded over workers",
    )
    census_parser.add_argument(
        "workload", help="census workload name (token_ring, byzantine)"
    )
    census_parser.add_argument(
        "--size", type=int, default=4, help="token_ring: ring size"
    )
    census_parser.add_argument(
        "--k", type=int, default=None,
        help="token_ring: K (default size+... per builder); "
             "byzantine: non-general count (default 3)",
    )
    census_parser.add_argument(
        "--shards", type=int, default=4,
        help="start-code shards (the census is exact for any count)",
    )
    census_parser.add_argument(
        "--distributed", metavar="URL", default=None,
        help="run shards through a 'repro serve' job queue at this URL "
             "(default: compute in-process)",
    )
    census_parser.add_argument(
        "--store", metavar="SPEC", default=None,
        help="store for shard artifacts in in-process mode (re-runs "
             "become cache hits)",
    )
    census_parser.add_argument(
        "--max-states", type=int, default=None,
        help="per-shard exploration cap (default: library cap)",
    )
    census_parser.add_argument(
        "--deadline", type=float, default=None,
        help="abort the distributed census after this many seconds",
    )
    lint_parser = subparsers.add_parser(
        "lint",
        help="statically analyze catalogue programs (no exploration)",
    )
    lint_parser.add_argument("names", nargs="*", help="entries to lint")
    lint_parser.add_argument(
        "--all", action="store_true", help="lint the whole catalogue"
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit JSON diagnostics (alias for --format json)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format; 'sarif' emits SARIF 2.1.0 for "
             "code-scanning uploads",
    )
    lint_parser.add_argument(
        "--store", metavar="SPEC", default=None,
        help="certificate store to read/write lint reports and "
             "per-action symbolic analyses (same SPEC forms as "
             "'verify --store')",
    )
    lint_parser.add_argument(
        "--no-symbolic", action="store_true",
        help="disable the Plan-IR symbolic analyzer (probe-only lint)",
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any unsuppressed error-level diagnostic remains",
    )
    lint_parser.add_argument(
        "--verbose", action="store_true",
        help="also print suppressed diagnostics and their justifications",
    )
    lint_parser.add_argument(
        "--suggest-frames", action="store_true",
        help="propose reads/writes declarations for unframed actions",
    )
    lint_parser.add_argument(
        "--probe-limit", type=int, default=4096,
        help="state-space size above which probing falls back to sampling",
    )
    lint_parser.add_argument(
        "--seed", type=int, default=0, help="seed for sampled probe states"
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, entry in CATALOGUE.items():
            description, checks = entry()
            print(f"{name:24s} {description} ({len(checks)} checks)", file=out)
        return 0

    if args.command == "campaign":
        return _campaign(args, out=out)

    if args.command == "monitor":
        return _monitor(args, out=out)

    if args.command == "bench":
        return _bench(args, out=out)

    if args.command == "lint":
        return _lint(args, out=out)

    if args.command == "serve":
        return _serve(args, out=out)

    if args.command == "worker":
        return _worker(args, out=out)

    if args.command == "census":
        return _census(args, out=out)

    names = list(CATALOGUE) if args.all else args.names
    if not names:
        print("nothing to verify; pass entry names or --all", file=out)
        return 2
    if args.store is not None:
        from .store import backend as store_backend

        store_backend.set_active_store(args.store)
    rc = _verify(names, out=out)
    _store_stats_line(out=out)
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
