"""One workload process: set up, run passes, report them as JSON lines.

Started by ``run.py``; every record goes to standard output as one line
prefixed with ``@@``.  Roles:

- ``setup``: set up, calibrate, exit;
- ``cold``: set up, run the first (cold) pass, exit;
- ``main``: set up, run the cold pass, then steady passes until the
  deadline (with ``--trace 1``, alternating untraced and traced ones);
- ``populate``: run the ``verify_warm`` catalogue cold against the
  store, recording the cold verdict texts for the warm passes.

Usage: ``python3 perfbench/child.py --workload W --role R --inputs F
--deadline T`` (``T`` on the ``time.perf_counter`` clock).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import calibration
import layers
import workloads
from tracer import Tracer

now = time.perf_counter


def emit(kind: str, **fields) -> None:
    sys.stdout.write("@@" + json.dumps({"kind": kind, **fields}) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    from repro.core.kernels import resolved_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "resolved_backend": resolved_backend(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: calibrate again before an operation when the last calibration is older
CALIBRATE_EVERY_S = 0.25


class Calibrator:
    """Times the workload's calibration loop (reported as ``calib``
    records) at least every :data:`CALIBRATE_EVERY_S` between
    operations, so every operation has a calibration shortly before and
    after it."""

    def __init__(self, workload: str) -> None:
        self.work = calibration.work_for(workload)
        #: seconds spent calibrating, warm-up included
        self.spent = calibration.measure(self.work)[1]  # (builds its input)
        self.last = 0.0
        for _ in range(calibration.SETUP_CALIBRATIONS):
            self.run()

    def run(self) -> None:
        start, seconds = calibration.measure(self.work)
        self.last = start + seconds
        self.spent += seconds
        emit("calib", t=start, s=seconds)

    def __call__(self) -> None:
        if now() - self.last > CALIBRATE_EVERY_S:
            self.run()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--role", required=True,
                        choices=("setup", "cold", "main", "populate"))
    parser.add_argument("--inputs", required=True,
                        help="JSON file describing the workload inputs")
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    started = now()
    for name in workloads.IMPORTS:
        importlib.import_module(name)
    import_s = now() - started

    from repro.core.exploration import set_default_workers
    from repro.store import backend

    set_default_workers(None)  # sharded exploration off
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    if inputs.get("store"):
        backend.set_active_store(inputs["store"])
    elif backend.active_store() is not None:
        raise SystemExit("a certificate store is active; it must not be")

    workload = workloads.WORKLOADS[args.workload](inputs["size"], inputs)
    tracer = Tracer() if args.trace else None
    traced = args.trace and args.role == "populate"
    if traced:
        layers.install(tracer)
        workload.tracer = tracer
    workload.prepare()
    emit("ready", t=now(), import_s=import_s)
    workload.pause = Calibrator(args.workload)

    index = 0
    while args.role != "setup":
        if index:
            if args.role != "main" or (
                    index > args.min_passes and now() >= args.deadline):
                break
            # trace run: odd steady passes untraced, even ones traced
            traced = bool(args.trace) and index % 2 == 0
            if tracer is not None:
                tracer.uninstall()
                workload.tracer = None
                if traced:
                    layers.install(tracer)
                    workload.tracer = tracer
            workload.prepare()
        backend.reset_stats()
        if traced:
            tracer.reset()  # drop what the model builds recorded
            tracer.span_id = index
            root = tracer.enter("pass")
        ops = workload.run_pass()
        if traced:
            tracer.exit(root, True)
        stats = backend.stats()
        record = {"index": index, "traced": traced,
                  "ops": [op.record() for op in ops],
                  "facts": workload.facts(), "store": stats}
        if traced:
            metrics = layers.extract(tracer)
            metrics.update(layers.store_metrics(stats))
            if args.role == "populate":
                metrics.update(layers.put_metrics(tracer))
            record["layer_self_s"] = layers.self_time_of_layers(tracer)
            # (after the pass's figures are read: extras may call
            # wrapped functions)
            metrics.update(workload.layer_extras())
            record["layers"] = metrics
        emit("pass", **record)
        index += 1
    workload.pause.run()

    if tracer is not None:
        tracer.uninstall()
        workload.tracer = None
        if args.trace_file and tracer.spans:
            tracer.write_chrome_trace(args.trace_file, {
                "workload": args.workload, "role": args.role})
    final = {}
    if args.role == "main":
        final = workload.finish()
    emit("done", rss_mb=peak_rss_mb(), env=environment(),
         store_active=backend.active_store() is not None,
         import_s=import_s, calib_s=workload.pause.spent, **final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
