"""Seeded event logs for the ``monitor`` workload, and their reference
answers.

The logs record a run of Dijkstra's K-state token ring of ``n``
processes: round-robin writes of each process's variable (its move when
it holds the token, its current value otherwise), occasional faults
that corrupt one variable, and periodic resets to the all-zero start.

The reference evaluates each detector's *definition* ("process i holds
the token") on the full values after every event, so it shares no code
with ``repro.monitoring`` and needs no import of ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

N, K = 8, 5
FAULT_RATE = 0.002
RESET_EVERY = 5_000


def tokens(values: List[int]) -> int:
    """Syndrome: bit i set iff process i holds the token."""
    n = len(values)
    bits = 1 if values[0] == values[n - 1] else 0
    for i in range(1, n):
        if values[i] != values[i - 1]:
            bits |= 1 << i
    return bits


def digest(transitions: List[List]) -> str:
    """Fingerprint of a transition sequence."""
    return hashlib.sha256(json.dumps(
        transitions, separators=(",", ":")).encode()).hexdigest()


def write_log(path: str, seed: int, index: int, count: int) -> Dict:
    """Write one log of ``count`` events; return its reference answers:
    the syndrome transitions ``[time, old, new]`` the monitor must
    report, the final syndrome, and event counts."""
    rng = random.Random(f"monitor/{seed}/{index}")
    values = [0] * N
    syndrome = tokens(values)
    transitions: List[List] = []
    writes = changing = 0
    lines = []
    for step in range(count):
        at = float(step)
        if step and step % RESET_EVERY == 0:
            values = [0] * N
            syndrome = tokens(values)
            lines.append(json.dumps({"time": at, "kind": "reset"}))
            continue
        if rng.random() < FAULT_RATE:
            kind, i, value = "fault", rng.randrange(N), rng.randrange(K)
        else:
            kind, i = "write", step % N
            if i == 0:
                value = (values[0] + 1) % K if values[0] == values[N - 1] \
                    else values[0]
            else:
                value = values[i - 1] if values[i] != values[i - 1] \
                    else values[i]
        lines.append(json.dumps(
            {"time": at, "kind": kind, "writes": {f"x{i}": value}}))
        writes += 1
        if values[i] != value:
            changing += 1
            values[i] = value
            new = tokens(values)
            if new != syndrome:
                transitions.append([at, syndrome, new])
                syndrome = new
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")
    return {
        "events": count,
        "write_events": writes,
        "changing_events": changing,
        "transitions": len(transitions),
        "corrections": sum(1 for t in transitions if t[2] != 0),
        "final": syndrome,
        "digest": digest(transitions),
    }
