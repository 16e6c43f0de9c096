"""The names the traced benchmark run wraps still exist.

``perfbench/layers.py`` wraps functions and methods of ``repro`` by
name: module functions by ``getattr``, methods through the defining
class's own ``__dict__``.  A renamed fixpoint, or an index class that
inherits its ``region_bits`` without binding it in its own class body,
makes the traced run raise.  These tests install the wrappers in
process and remove them again, so such a change fails here rather than
minutes into a benchmark run.  Nothing under ``perfbench/`` is edited.
"""

import gc
import importlib
import os

import pytest

from repro.core.exploration import TransitionSystem, set_default_workers
from repro.core.predicate import var_eq
from repro.core.regions import system_index, universe_index
from repro.programs import token_ring

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _perfbench(monkeypatch):
    """perfbench's ``layers`` and ``tracer`` modules, with every module
    its workloads wrap imported."""
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    for name in workloads.IMPORTS:
        importlib.import_module(name)
    return importlib.import_module("layers"), importlib.import_module("tracer")


def test_layers_install_and_uninstall_cleanly(monkeypatch):
    layers, tracer_module = _perfbench(monkeypatch)
    callbacks = list(gc.callbacks)
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        installed = list(tracer._patches)
    finally:
        tracer.uninstall()

    assert installed
    assert not tracer._patches
    assert gc.callbacks == callbacks
    for owner, attr, original in installed:
        assert owner.__dict__[attr] is original


def test_each_region_bits_call_counts_one_sweep(monkeypatch):
    """``SystemIndex`` inherits ``region_bits`` from ``StateIndex`` and
    binds it in its own class body, so both classes are wrapped; one
    call on each index, with a predicate neither has memoized, counts
    one sweep each."""
    layers, tracer_module = _perfbench(monkeypatch)
    ring = token_ring.build(5, 4).ring
    universe = universe_index(ring)
    index = system_index(TransitionSystem(ring, universe.states[:1]))
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        universe.region_bits(var_eq("x0", 0))
        index.region_bits(var_eq("x0", 0))
        assert tracer.calls("regions.sweep") == 2
    finally:
        tracer.uninstall()


def test_set_default_workers_accepts_only_in_process():
    """perfbench's child turns the removed exploration pool off with
    ``set_default_workers(None)``; a count above 1 is refused."""
    set_default_workers(None)
    set_default_workers(1)
    with pytest.raises(ValueError, match="distributed_census"):
        set_default_workers(2)
