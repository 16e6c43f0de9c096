"""Calibration loops: fixed work whose wall tracks the speed the machine
gives a process at the moment it runs.

The machine this benchmark was built on changes that speed by up to
1.7x over seconds to minutes, so the workload processes time a
calibration loop between operations and the driver scales every time
to the speed at which the loop takes :data:`REFERENCE_S`.  Interpreter
speed and numpy speed drift differently, so ``census`` (which spends its
time in numpy kernels) is calibrated with numpy work, the other
workloads with interpreter work: each choice halved its workload's
run-to-run spread, and the other choice widened it.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Tuple

#: wall of either loop at the reference speed (about 25 ms)
REFERENCE_S = 0.025

#: loops timed on each side of a set-up; their median is used, because
#: now and then a single loop is preempted and reads up to 1.7x slower
SETUP_CALIBRATIONS = 3


def interpreter_work() -> int:
    """Integer arithmetic and dict probes."""
    table: dict = {}
    total = 0
    for i in range(100_000):
        key = i & 255
        total += table.get(key, 0) + (i * i) % 7
        table[key] = total & 0xFFFF
    return total


@functools.lru_cache(maxsize=None)
def _codes():
    import numpy as np

    return np.random.default_rng(0).integers(0, 1 << 40, 60_000)


def numpy_work() -> int:
    """Sort, unique and search over a fixed array of 60,000 codes."""
    import numpy as np

    codes = _codes()
    unique = np.unique(codes)
    return int(np.searchsorted(unique, codes)[-1] + np.sort(codes)[0])


def work_for(workload: str) -> Callable[[], int]:
    return numpy_work if workload == "census" else interpreter_work


def measure(work: Callable[[], int]) -> Tuple[float, float]:
    """``(start, seconds)`` of one run of ``work``."""
    start = time.perf_counter()
    work()
    return start, time.perf_counter() - start
