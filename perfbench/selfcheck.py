"""Self-check of the benchmark at tiny sizes.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --size tiny --seconds 2`` untraced
once and traced twice, and asserts that:

- each run is correct and reports exactly the metrics that
  ``BENCHMARK.json`` names, with their units;
- every count-type per-layer metric (states, edges, events,
  transitions, store gets, ...) repeats exactly between the two traced
  runs;
- the traced run's pass sizes and verdicts equal the untraced run's
  (``run.py`` itself checks, within a run, that traced and untraced
  passes give the same verdicts and outputs);
- summed self times stay within the pass wall.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

#: ``--seconds`` of every run
SECONDS = "2"


def benchmark_run(workload: str, trace: int, seed: int) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
         str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["perfbench"],
            "result": json.loads(lines[-1])}


def check_workload(workload: str, spec: Dict[str, Any]) -> List[str]:
    problems: List[str] = []
    plain = benchmark_run(workload, 0, seed=1)
    traced = [benchmark_run(workload, 1, seed=1) for _ in range(2)]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace, outcome in [(0, plain)] + [(1, t) for t in traced]:
        result = outcome["result"]
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={trace} run not correct: "
                            f"{outcome['detail']['problems']}")
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if units != expected[trace]:
            problems.append(f"trace={trace} metrics differ from "
                            "BENCHMARK.json")
    first, second = (t["result"]["metrics"] for t in traced)
    for name in sorted(layers.COUNT_METRICS):
        if first[name]["value"] != second[name]["value"]:
            problems.append(f"count {name} differs between traced runs: "
                            f"{first[name]['value']} != "
                            f"{second[name]['value']}")
    if first["trace.self_share"]["value"] > 1.0:
        problems.append("summed self times exceed the pass wall")
    for t in traced:
        if t["detail"]["pass_size"] != plain["detail"]["pass_size"]:
            problems.append("traced pass sizes differ from the untraced run")
    per_pass = {
        id(o): o["result"]["attempted"] / o["detail"]["passes"]
        for o in [plain] + traced
    }
    if len(set(per_pass.values())) != 1:
        problems.append(f"verdicts per pass differ between runs: "
                        f"{sorted(per_pass.values())}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for workload in run.WORKLOADS:
        problems = check_workload(workload, spec)
        failed = failed or bool(problems)
        print(f"{workload:12s} {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
