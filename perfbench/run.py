"""The repository benchmark: four verifier workloads, timed from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Each run starts fresh workload processes (``perfbench/child.py``) that
call the public API of ``repro`` from ``src/``: several short ones that
set up and then exit or run the first (cold) pass, then one that also
runs steady passes until ``--seconds`` have passed since the run began.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it carries the details (seed, sample counts, error
rate, environment).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibration  # noqa: E402  (needs HERE on the path)
import eventlog  # noqa: E402

now = time.perf_counter

WORKLOADS = ("verify", "census", "monitor", "verify_warm")

#: fresh processes of an untraced run, in order: each gives one set-up
#: sample, each but the ``setup`` ones one cold-pass sample, and the
#: ``main`` one also runs the steady passes.  A ``verify_warm`` cold
#: pass (about 20 ms) costs next to nothing beside its set-up (about
#: 1.5 s), so every one of its processes runs one.
ROLES = {"verify_warm": ("cold",) * 8 + ("main",)}
DEFAULT_ROLES = ("cold", "setup") * 4 + ("main",)

#: the whole run, children included, must end within this many seconds
RUN_LIMIT_S = 170.0

REFERENCE_S = calibration.REFERENCE_S

#: monitor logs per pass and events per log, by size
MONITOR_SHAPE = {"full": (24, 6_250), "tiny": (2, 2_000)}

#: thread-pool variables capped at the CPU count in workload processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    """The run could not produce a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_STORE", None)  # no store unless the workload sets one
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    nproc = os.cpu_count() or 1
    for name in THREAD_VARS:
        current = env.get(name, "")
        env[name] = str(min(int(current), nproc)) if current.isdigit() \
            else str(nproc)
    return env


def run_child(workload: str, role: str, inputs: str, deadline: float,
              limit: float, trace: int = 0, min_passes: int = 3,
              trace_file: Optional[str] = None) -> Dict[str, Any]:
    """Run one workload process to completion; returns its records and
    the time it was started (``t0``, on the ``perf_counter`` clock)."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--role", role, "--inputs", inputs,
        "--deadline", repr(deadline), "--trace", str(trace),
        "--min-passes", str(min_passes),
    ]
    if trace_file:
        command += ["--trace-file", trace_file]
    t0 = now()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, limit - now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{workload} {role} process overran the time limit")
    if proc.returncode != 0:
        raise RunError(f"{workload} {role} process exited with code "
                       f"{proc.returncode}")
    records: Dict[str, Any] = {"t0": t0, "passes": [], "calib": []}
    for line in stdout.splitlines():
        if not line.startswith("@@"):
            continue
        record = json.loads(line[2:])
        if record["kind"] == "pass":
            records["passes"].append(record)
        elif record["kind"] == "calib":
            records["calib"].append(record)
        else:
            records[record["kind"]] = record
    if "ready" not in records or "done" not in records \
            or not records["calib"]:
        raise RunError(f"{workload} {role} process reported no result")
    calib = records["calib"]
    for record in records["passes"]:
        for op in record["ops"]:
            op["scale"] = scale_at(calib, op["t"], op["t"] + op["s"])
        record["wall"] = sum(op["s"] for op in record["ops"])
        record["time"] = sum(op["s"] * op["scale"] for op in record["ops"])
        record["scale"] = record["time"] / record["wall"]
    return records


def scale_at(calib: List[Dict[str, float]], start: float,
             end: float) -> float:
    """Factor that converts a time measured from ``start`` to ``end`` to
    the reference speed: the reference calibration wall over the mean of
    the calibrations just before and just after."""
    before = [c["s"] for c in calib if c["t"] + c["s"] <= start][-1:]
    after = [c["s"] for c in calib if c["t"] >= end][:1]
    return REFERENCE_S / statistics.mean(before + after)


def write_inputs(path: str, inputs: Dict[str, Any]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(inputs, handle)
    return path


def monitor_inputs(work: str, seed: int, size: str) -> Dict[str, Any]:
    """Generate the event logs from the seed; the reference answers stay
    with the driver (the workload process gets only the files)."""
    logs, per_log = MONITOR_SHAPE[size]
    paths, references = [], []
    for i in range(logs):
        path = os.path.join(work, f"events{i:02d}.jsonl")
        references.append(eventlog.write_log(path, seed, i, per_log))
        paths.append(path)
    inputs = {
        "size": size, "n": eventlog.N, "k": eventlog.K, "logs": paths,
        "write_events": sum(r["write_events"] for r in references),
        "changing_events": sum(r["changing_events"] for r in references),
    }
    return {"inputs": inputs, "references": references}


def quantile(values: List[float], q: float) -> float:
    """Inclusive-method quantile ``q`` (0 < q < 1) of at least 2 values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.problems: List[str] = []
        self.references: List[Dict[str, Any]] = []

    # -- processes -----------------------------------------------------------
    def sample(self, work: str, role: str, inputs: Dict[str, Any],
               deadline: float, limit: float) -> Dict[str, Any]:
        """One fresh workload process (after a fresh store is populated,
        for ``verify_warm``); ``setup_s`` is measured from its start and
        scaled by the median of the calibrations taken in the window."""
        calibrate = calibration.work_for(self.workload)
        calibrate()  # (the first call builds its input)
        samples = calibration.SETUP_CALIBRATIONS
        window = [calibration.measure(calibrate)[1] for _ in range(samples)]
        records = self._sample(work, role, inputs, deadline, limit)
        # the populating process (verify_warm) calibrates inside the window
        window += [c["s"] for c in records.get("populate", {}).get("calib", [])]
        window += [c["s"] for c in records["calib"][:samples]]
        records["scale"] = REFERENCE_S / statistics.median(window)
        return records

    def _sample(self, work: str, role: str, inputs: Dict[str, Any],
                deadline: float, limit: float) -> Dict[str, Any]:
        trace_file = None
        if self.trace and role == "main":
            trace_file = os.path.join(
                OUT, f"trace-{self.workload}-seed{self.seed}.json")
        min_passes = 4 if self.trace else 3
        if self.workload != "verify_warm":
            path = write_inputs(os.path.join(work, f"inputs-{role}.json"),
                                inputs)
            records = run_child(self.workload, role, path, deadline, limit,
                                self.trace, min_passes, trace_file)
            records["setup_s"] = records["ready"]["t"] - records["t0"]
            return records
        store_dir = tempfile.mkdtemp(prefix="store-", dir=work)
        try:
            store = os.path.join(store_dir, "certificates.sqlite")
            populate_inputs = dict(inputs, store=store)
            path = write_inputs(os.path.join(store_dir, "populate.json"),
                                populate_inputs)
            populate = run_child(self.workload, "populate", path, deadline,
                                 limit, self.trace)
            cold = {op["name"]: op["out"]
                    for op in populate["passes"][0]["ops"]}
            warm_inputs = dict(populate_inputs, cold_verdicts=cold,
                               states=populate["passes"][0]["facts"]["states"])
            path = write_inputs(os.path.join(store_dir, "warm.json"),
                                warm_inputs)
            records = run_child(self.workload, role, path, deadline, limit,
                                self.trace, min_passes, trace_file)
            # the populating process's calibration loops (warm-up, between
            # operations, at its end) are the harness's time, not set-up's
            records["setup_s"] = (records["ready"]["t"] - populate["t0"]
                                  - populate["done"]["calib_s"])
            records["populate"] = populate
            self.check_populate(populate)
            return records
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def check_populate(self, populate: Dict[str, Any]) -> None:
        for op in populate["passes"][0]["ops"]:
            if not op["ok"]:
                self.problems.append(f"cold verdict {op['name']} failed")

    # -- oracle --------------------------------------------------------------
    def judge(self, ops: List[Dict[str, Any]]) -> List[int]:
        """``[attempted, failed]`` for one pass's operations.  For
        ``monitor`` each operation attempts its log's reference
        transitions and fails them all when any output differs."""
        attempted = failed = 0
        for i, op in enumerate(ops):
            ok = op["ok"]
            weight = 1
            if self.workload == "monitor":
                ref = self.references[i]
                out = op["out"] or {}
                weight = max(1, ref["transitions"])
                ok = ok and all(out.get(key) == ref[key] for key in (
                    "events", "transitions", "corrections", "final"))
            attempted += weight
            if not ok:
                failed += weight
                self.problems.append(
                    f"pass operation {op['name']} failed: {op['note']}")
        return [attempted, failed]

    def check_process(self, records: Dict[str, Any]) -> None:
        done = records["done"]
        if self.workload == "verify_warm":
            # every pass is answered from the store: a store that misses
            # or fails would explore for real and give the same verdicts
            for record in records["passes"]:
                stats = record["store"]
                if not stats["hits"] or stats["misses"] or stats["errors"] \
                        or stats["puts"]:
                    self.problems.append(
                        f"pass {record['index']} was not served from the "
                        f"store: {stats}")
        elif done["store_active"] or any(
                record["store"]["hits"] for record in records["passes"]):
            self.problems.append("a certificate store served this run")
        if self.workload == "monitor" and "transition_digests" in done:
            want = [r["digest"] for r in self.references]
            if done["transition_digests"] != want:
                self.problems.append(
                    "transition sequences differ from the reference")

    # -- the run -------------------------------------------------------------
    def execute(self) -> Dict[str, Any]:
        begin = now()
        limit = begin + RUN_LIMIT_S
        deadline = begin + self.seconds
        os.makedirs(OUT, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"run-{self.workload}-", dir=OUT)
        try:
            inputs: Dict[str, Any] = {"size": self.size}
            events_generated = 0
            if self.workload == "monitor":
                generated = monitor_inputs(work, self.seed, self.size)
                inputs = generated["inputs"]
                self.references = generated["references"]
                events_generated = sum(r["events"] for r in self.references)
            roles = ["main"] if self.trace else \
                ROLES.get(self.workload, DEFAULT_ROLES)
            processes = [self.sample(work, role, inputs, deadline, limit)
                         for role in roles]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return self.summarize(processes, events_generated)

    def summarize(self, processes: List[Dict[str, Any]],
                  events_generated: int) -> Dict[str, Any]:
        attempted = failed = 0
        facts = []
        for records in processes:
            self.check_process(records)
            for record in records["passes"]:
                a, f = self.judge(record["ops"])
                attempted += a
                failed += f
                facts.append(record["facts"])
        if any(f != facts[0] for f in facts):
            self.problems.append(f"pass sizes differ between passes: {facts}")
        # every pass, traced or not, in every process gives the same
        # verdicts and outputs
        verdicts = [[(op["name"], op["ok"], op["out"]) for op in p["ops"]]
                    for records in processes for p in records["passes"]]
        if any(v != verdicts[0] for v in verdicts):
            self.problems.append("verdicts differ between passes")
        main = processes[-1]
        steady = main["passes"][1:]
        untraced = [p for p in steady if not p["traced"]]
        traced = [p for p in steady if p["traced"]]
        if self.trace:
            metrics = self.layer_metrics(main, untraced, traced)
        else:
            metrics = self.end_to_end(processes, untraced, facts[0])
        detail = {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace, "size": self.size,
            "events_generated": events_generated,
            "processes": len(processes), "passes": len(facts),
            "steady_passes": len(untraced), "traced_passes": len(traced),
            "verdict_samples": sum(len(p["ops"]) for p in untraced),
            "pass_size": facts[0],
            "error_rate": failed / attempted if attempted else 1.0,
            "unscaled": {
                "setup_s": [p["setup_s"] for p in processes],
                "cold_pass_s": [p["passes"][0]["wall"] for p in processes
                                if p["passes"]],
                "pass_s": [p["wall"] for p in untraced],
                "scale": [p["scale"] for p in untraced],
            },
            "problems": self.problems[:20],
            "env": main["done"]["env"],
        }
        return {"detail": detail, "result": {
            "correct": not self.problems and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics,
        }}

    def end_to_end(self, processes, untraced, facts) -> Dict[str, Any]:
        setup = [p["setup_s"] * p["scale"] for p in processes]
        cold = [p["passes"][0]["time"] for p in processes if p["passes"]]
        walls = [p["time"] for p in untraced]
        # per-pass verdict quantiles, median over the passes: a pass is a
        # fixed mix of operations, so pooling passes would put the
        # quantile on the boundary between two operation kinds
        latencies = [[op["s"] * op["scale"] for op in p["ops"]]
                     for p in untraced]
        pass_s = statistics.median(walls)
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "cold_pass_s": (statistics.median(cold), "s"),
            "pass_s": (pass_s, "s"),
            "verdict_p50_ms": (1e3 * statistics.median(
                statistics.median(pass_ops) for pass_ops in latencies), "ms"),
            "verdict_p95_ms": (1e3 * statistics.median(
                quantile(pass_ops, 0.95) for pass_ops in latencies), "ms"),
            "states_per_s": (facts["states"] / pass_s, "1/s"),
            "events_per_s": (facts["events"] / pass_s, "1/s"),
            "peak_rss_mb": (processes[-1]["done"]["rss_mb"], "MB"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}

    def layer_metrics(self, main, untraced, traced) -> Dict[str, Any]:
        import layers

        if len(traced) < 2 or not untraced:
            raise RunError("the traced run needs two traced passes")
        per_pass = [
            {name: value * p["scale"] if layers.unit_of(name) == "s"
             else value for name, value in p["layers"].items()}
            for p in traced
        ]
        metrics: Dict[str, float] = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name in layers.COUNT_METRICS:
                if any(v != values[0] for v in values):
                    self.problems.append(f"count {name} differs between "
                                         f"traced passes: {values}")
                metrics[name] = values[-1]
            else:
                metrics[name] = statistics.median(values)
        populate = main.get("populate")
        for name in layers.PUT_METRICS:
            metrics[name] = 0
            if populate is not None:
                first = populate["passes"][0]
                metrics[name] = first["layers"][name] * (
                    first["scale"] if layers.unit_of(name) == "s" else 1)
        metrics["python.import_s"] = main["done"]["import_s"] * main["scale"]
        traced_s = statistics.median(p["time"] for p in traced)
        untraced_s = statistics.median(p["time"] for p in untraced)
        metrics["trace.pass_s"] = traced_s
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.overhead"] = traced_s / untraced_s - 1.0
        shares = [p["layer_self_s"] / p["wall"] for p in traced]
        metrics["trace.self_share"] = max(shares)
        if max(shares) > 1.0:
            self.problems.append("summed self times exceed the pass wall")
        metrics["symmetry.quotient_ratio"] = self.quotient_ratio(untraced)
        metrics.setdefault("symmetry.orbit_reduction", 0.0)
        for name in ("monitoring.transitions", "monitoring.dirty_ratio"):
            metrics.setdefault(name, 0)
        return {name: {"value": value, "unit": layers.unit_of(name)}
                for name, value in sorted(metrics.items())}

    def quotient_ratio(self, untraced) -> float:
        """Quotient ring certificate wall over the unreduced one."""
        if self.workload != "verify":
            return 0.0
        walls: Dict[str, List[float]] = {"ring": [], "ring_quotient": []}
        for record in untraced:
            for op in record["ops"]:
                if op["name"] in walls:
                    walls[op["name"]].append(op["s"])
        return statistics.median(walls["ring_quotient"]) / \
            statistics.median(walls["ring"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances, for the self-check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, args.trace, args.size)
    try:
        outcome = run.execute()
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=1)
    print(json.dumps({"perfbench": outcome["detail"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
