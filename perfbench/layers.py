"""Which public entry points of ``repro`` the traced run wraps, and how
the per-layer metrics are read off a :class:`~tracer.Tracer`.

Every metric is named ``<layer>.<quantity>``; ``*_s`` metrics are
seconds per pass (inclusive of wrapped callees unless the name says
"self"), the rest are counts or ratios per pass.  A layer a workload
does not use reports 0.
"""

from __future__ import annotations

from typing import Dict

from tracer import Tracer

#: exploration engines a finished system is classified into
ENGINES = ("columnar", "batched", "small", "scalar")

#: certificate-store counters reported as ``store.counters.<name>``
STORE_COUNTERS = (
    "hits", "misses", "puts", "errors", "verdict_hits", "obligation_hits",
    "obligations_reused", "graph_hits", "graph_reassembled", "rows_hits",
    "rows_computed", "closure_facts_served",
)


def engine_of(system) -> str:
    """The engine that built ``system``, read off what it retains: the
    columnar engine keeps edge arrays, the scalar engine keeps no dense
    id rows, and the small-space path runs below a state-count limit.

    These are private attributes of the engines.  They are read without
    defaults, so a renamed one fails the traced pass (the operation
    raises) instead of classifying every system as scalar."""
    from repro.core import exploration

    if system._edge_arrays is not None:
        return "columnar"
    if system._labeled_rows is None:
        return "scalar"
    if system.program.state_count() <= exploration._SMALL_SPACE_STATES:
        return "small"
    return "batched"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (the modules must be imported)."""
    from repro.core import exploration
    from repro.core.exploration import TransitionSystem

    if not hasattr(exploration, "_SMALL_SPACE_STATES"):
        raise RuntimeError("repro.core.exploration no longer has "
                           "_SMALL_SPACE_STATES; update engine_of")
    from repro.core.regions import StateIndex, SystemIndex
    from repro.core.symmetry import Canonicalizer, Symmetry
    from repro.monitoring import (
        DetectorBank, MonitorRuntime, SyndromeDecoder, TelemetrySink,
    )
    from repro.store.backend import BaseStore

    fn, method = tracer.patch_function, tracer.patch_method
    count = tracer.count

    # repro.core.exploration
    def built(frame, args, result):
        system = args[0]
        states = len(system.states)
        engine = engine_of(system)
        count("exploration.states", states)
        count(f"exploration.states.{engine}", states)
        count(f"exploration.build_s.{engine}", frame.self_time)
        caller = tracer.caller()
        if caller is not None and caller.name == "exploration.lookup":
            caller.mark = True

    def looked_up(frame, args, result):
        if not frame.mark:
            count("exploration.lru_hits")

    method(TransitionSystem, "__init__", "exploration.build", after=built)
    fn("repro.core.exploration", "explored_system", "exploration.lookup",
       after=looked_up)

    # repro.core.symmetry
    method(Canonicalizer, "canonical", "symmetry.canonical", hot=True,
           after=lambda f, a, r: f.outer and count(
               "symmetry.canonical_states"))
    method(Canonicalizer, "canonical_many", "symmetry.canonical", hot=True,
           after=lambda f, a, r: f.outer and count(
               "symmetry.canonical_states", len(r)))
    for name in ("require_predicate_invariant", "require_spec_invariant"):
        method(Symmetry, name, "symmetry.invariance")

    # repro.core.regions
    for name in ("system_index", "universe_index"):
        fn("repro.core.regions", name, "regions.index")
    method(StateIndex, "region_bits", "regions.sweep", hot=True)
    method(SystemIndex, "region_bits", "regions.sweep", hot=True)

    # repro.core.invariants and repro.synthesis; the synthesis pipelines
    # call the bit-level fixpoints behind the public functions directly
    for module, name in (
        ("repro.core.invariants", "largest_invariant_for_safety"),
        ("repro.core.invariants", "weakest_detection_predicate"),
        ("repro.synthesis.weakest", "fault_unsafe_region"),
        ("repro.synthesis.weakest", "safe_action_predicate"),
        ("repro.synthesis.weakest", "_fault_unsafe_bits"),
        ("repro.synthesis.weakest", "_safe_action_bits"),
        ("repro.core.regions", "largest_closed_subset_bits"),
    ):
        fn(module, name, "fixpoints")
    fn("repro.synthesis.failsafe", "add_failsafe", "synthesis")
    fn("repro.synthesis.masking", "add_masking", "synthesis")

    # repro.core.fairness
    fn("repro.core.fairness", "check_leads_to", "fairness.leads_to")
    # (check_leads_to calls the id-level SCC search behind the public ones)
    for name in ("strongly_connected_components", "fair_recurrent_sccs",
                 "_fair_recurrent_component_ids"):
        fn("repro.core.fairness", name, "fairness.scc", hot=True)

    # repro.core.tolerance
    for name in ("is_failsafe_tolerant", "is_nonmasking_tolerant",
                 "is_masking_tolerant", "is_tolerant"):
        fn("repro.core.tolerance", name, "tolerance")

    # repro.core.kernels
    for name in ("row_kernel", "batch_kernel", "code_kernel"):
        fn("repro.core.kernels", name, "kernels.compile")

    def census(frame, args, result):
        count("kernels.census_states", result.states)
        count("kernels.census_edges", result.edges)
        count("kernels.census_levels", result.levels)

    fn("repro.core.kernels", "explore_codes", "kernels.census", after=census)

    # repro.store
    fn("repro.store.certificates", "certificate_key", "store.key", hot=True)
    fn("repro.store.keys", "digest", "store.key", hot=True)
    method(BaseStore, "get", "store.get",
           after=lambda f, a, r: r is not None and count(
               "store.bytes_read", len(r)))
    fn("repro.store.backend", "loads", "store.decode")
    method(BaseStore, "put", "store.put",
           after=lambda f, a, r: count("store.bytes_written", len(a[2])))

    # repro.monitoring (read_events lives in repro.campaigns.report)
    tracer.patch_generator("repro.campaigns.report", "read_events",
                           "monitoring.decode")
    fn("repro.monitoring.sources", "normalize_event", "monitoring.decode",
       hot=True)
    method(MonitorRuntime, "run_sync", "monitoring.drain")
    method(DetectorBank, "update_syndrome", "monitoring.update", hot=True)
    method(SyndromeDecoder, "decode", "monitoring.decoder", hot=True)
    for name in ("record_transition", "record_latency", "record_correction",
                 "record_reset"):
        method(TelemetrySink, name, "monitoring.telemetry", hot=True)

    tracer.install_gc()


def extract(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    t, c = tracer, tracer.counters
    lookups = t.calls("exploration.lookup")
    metrics: Dict[str, float] = {
        "exploration.build_s": t.self_time("exploration.build"),
        "exploration.states": c.get("exploration.states", 0),
        "exploration.lru_hit_ratio": (
            c.get("exploration.lru_hits", 0) / lookups if lookups else 0.0
        ),
    }
    for engine in ENGINES:
        metrics[f"exploration.build_s.{engine}"] = c.get(
            f"exploration.build_s.{engine}", 0.0)
        metrics[f"exploration.states.{engine}"] = c.get(
            f"exploration.states.{engine}", 0)
    metrics.update({
        "symmetry.canonical_s": t.total("symmetry.canonical"),
        "symmetry.canonical_states": c.get("symmetry.canonical_states", 0),
        "symmetry.invariance_check_s": t.total("symmetry.invariance"),
        "regions.index_s": t.total("regions.index"),
        "regions.sweep_s": t.total("regions.sweep"),
        "regions.sweeps": t.calls("regions.sweep"),
        "fixpoints.s": t.total("fixpoints"),
        "synthesis.s": t.total("synthesis"),
        "fairness.leads_to_s": t.total("fairness.leads_to"),
        "fairness.leads_to_calls": t.calls("fairness.leads_to"),
        "fairness.scc_s": t.total("fairness.scc"),
        "tolerance.self_s": t.self_time("tolerance"),
        "kernels.compile_s": t.total("kernels.compile"),
        "kernels.census_s": t.total("kernels.census"),
        "kernels.census_states": c.get("kernels.census_states", 0),
        "kernels.census_edges": c.get("kernels.census_edges", 0),
        "kernels.census_levels": c.get("kernels.census_levels", 0),
        "store.key_s": t.total("store.key"),
        "store.get_s": t.total("store.get"),
        "store.gets": t.calls("store.get"),
        "store.bytes_read": c.get("store.bytes_read", 0),
        "store.decode_s": t.total("store.decode"),
        "monitoring.decode_s": t.total("monitoring.decode"),
        "monitoring.drain_s": t.self_time("monitoring.drain"),
        "monitoring.update_s": t.total("monitoring.update"),
        "monitoring.updates": t.calls("monitoring.update"),
        "monitoring.decoder_s": t.total("monitoring.decoder"),
        "monitoring.decodes": t.calls("monitoring.decoder"),
        "monitoring.telemetry_s": t.total("monitoring.telemetry"),
        "python.gc_s": c.get("python.gc_s", 0.0),
        "python.gc_collections": c.get("python.gc_collections", 0),
    })
    return metrics


#: store writes, measured while the ``verify_warm`` store is populated
PUT_METRICS = ("store.put_s", "store.puts", "store.bytes_written")


def put_metrics(tracer: Tracer) -> Dict[str, float]:
    return dict(zip(PUT_METRICS, (
        tracer.total("store.put"), tracer.calls("store.put"),
        tracer.counters.get("store.bytes_written", 0),
    )))


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("ratio", "overhead", "share", "reduction")):
        return "ratio"
    return "count"


def self_time_of_layers(tracer: Tracer) -> float:
    """Summed self time of every wrapped call (harness frames, named
    ``pass`` and ``op:...``, excluded)."""
    return sum(
        stat.self_time for name, stat in tracer.stats.items()
        if name != "pass" and not name.startswith("op:")
    )


def store_metrics(stats: Dict[str, int]) -> Dict[str, float]:
    """``store.hit_ratio`` and ``store.counters.*`` from one pass's
    ``repro.store.backend.stats()``."""
    looked = stats.get("hits", 0) + stats.get("misses", 0)
    metrics = {
        "store.hit_ratio": stats.get("hits", 0) / looked if looked else 0.0,
    }
    for name in STORE_COUNTERS:
        metrics[f"store.counters.{name}"] = stats.get(name, 0)
    return metrics


#: count-type metrics: these must repeat exactly from run to run
COUNT_METRICS = frozenset(
    ["exploration.states", "symmetry.canonical_states", "regions.sweeps",
     "fairness.leads_to_calls", "kernels.census_states",
     "kernels.census_edges", "kernels.census_levels", "store.gets",
     "store.bytes_read", "store.puts", "store.bytes_written",
     "monitoring.updates", "monitoring.decodes", "monitoring.transitions"]
    + [f"exploration.states.{engine}" for engine in ENGINES]
    + [f"store.counters.{name}" for name in STORE_COUNTERS]
)
