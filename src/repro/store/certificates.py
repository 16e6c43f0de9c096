"""Verdict caching: exact-key replay of whole certificates and obligations.

Two layers, each consulted by :mod:`repro.core.tolerance` and
:mod:`repro.core.refinement` when a store is active:

1. **Certificate replay** — whole tolerance verdicts keyed by the full
   content fingerprint (program + faults + spec + invariant + span +
   symmetry).  A warm ``repro verify`` of an unchanged catalogue is
   served entirely from here: the stored
   :class:`~repro.core.results.CheckResult` is bit-identical to a fresh
   one by round-trip of the frozen dataclasses.

2. **Obligation replay** — one graph obligation of a certificate
   (refinement, safety, liveness, convergence) keyed by its tag, the
   program, the faults, the predicates it starts from, its spec and its
   description.  An obligation several certificates share is decided
   once.

Both replay only what an exploration decided for exactly the same key:
an edited program, however small the edit, has new keys and is checked
afresh.  A payload that does not decode is a miss, recomputed and put
again.
"""

from __future__ import annotations

from typing import Callable

from . import backend as _backend
from . import keys as _keys

__all__ = [
    "certificate_key",
    "lookup_certificate",
    "record_certificate",
    "cached_obligation",
]


def certificate_key(tag: str, program, faults, spec, invariant, span,
                    symmetric: bool) -> str:
    return _keys.digest("cert", (
        tag,
        _keys.program_material(program),
        _keys.faults_material(faults) if faults is not None else None,
        _keys.spec_material(spec) if spec is not None else None,
        _keys.predicate_material(invariant) if invariant is not None else None,
        _keys.predicate_material(span) if span is not None else None,
        bool(symmetric),
    ))


def _replayed(store, key: str):
    """The verdict stored at ``key``, or ``None`` for no payload or one
    that does not decode."""
    payload = store.get(key)
    if payload is None:
        return None
    try:
        return _backend.loads(payload)
    except Exception:  # truncated or flipped pickles raise anything
        return None


def lookup_certificate(key: str):
    store = _backend.active_store()
    if store is None:
        return None
    result = _replayed(store, key)
    if result is not None:
        _backend.record_event("verdict_hits")
    return result


def record_certificate(key: str, result) -> None:
    store = _backend.active_store()
    if store is None:
        return
    store.put(key, _backend.dumps(result), kind="cert")


def cached_obligation(tag: str, program, faults, predicates, spec, extra,
                      compute: Callable[[], object]):
    """Serve one obligation by exact-key replay, else ``compute()`` it
    and record the result.  ``faults`` is a fault class or a sequence of
    fault actions, ``predicates`` the predicates the obligation starts
    from, ``spec`` the checked spec (or ``None``) and ``extra`` anything
    else the result depends on, such as its description."""
    store = _backend.active_store()
    if store is None:
        return compute()
    key = _keys.digest("obligation", (
        tag,
        _keys.program_material(program),
        _keys.faults_material(faults),
        _keys.spec_material(spec) if spec is not None else None,
        tuple(_keys.predicate_material(p) for p in predicates),
        extra,
    ))
    result = _replayed(store, key)
    if result is not None:
        _backend.record_event("obligation_hits")
        return result
    result = compute()
    store.put(key, _backend.dumps(result), kind="obligation")
    return result
