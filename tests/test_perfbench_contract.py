"""The names the traced benchmark run wraps still exist.

``perfbench/layers.py`` wraps functions and methods of ``repro`` by
name: module functions by ``getattr``, methods through the defining
class's own ``__dict__``.  A renamed fixpoint, or an index class that
inherits its ``region_bits`` instead of defining it, makes the traced
run raise.  This test installs the wrappers in process and removes them
again, so such a change fails here rather than minutes into a benchmark
run.  Nothing under ``perfbench/`` is edited.
"""

import gc
import importlib
import os

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def test_layers_install_and_uninstall_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    layers = importlib.import_module("layers")
    tracer_module = importlib.import_module("tracer")
    for name in workloads.IMPORTS:
        importlib.import_module(name)

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
