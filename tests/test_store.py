"""Tests for the persistent certificate store (:mod:`repro.store`).

Covers the acceptance matrix of the store PR:

- round-trip parity: ``repro verify --all`` served warm from a store is
  bit-identical to a cold run and to a store-less run;
- a second warm run is answered entirely from the store (zero misses,
  verdict replays observed);
- content keys are sensitive to every semantic ingredient (guards,
  effects, names, frames, domains, spec predicates, symmetry flag);
- frame-aware incremental reuse: a frame-disjoint single-action edit
  transfers the passing verdict without recomputing, an interfering
  edit recomputes, and both agree with fresh store-less verdicts;
- ``clear_all_caches`` closes store handles but keeps the store active;
- the exploration LRU keys on the resolved engine, so a columnar-built
  system is never served to the interpreted oracle;
- a malformed or old-format whole-graph artifact is never served: the
  graph is explored again and saved over it;
- ``repro serve`` round-trips artifacts to a ``RemoteStore`` client.
"""

import asyncio
import io
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core import exploration
from repro.core import kernels
from repro.core.action import Action, assign
from repro.core.fairness import check_leads_to
from repro.core.predicate import TRUE, Predicate, var_eq, var_in
from repro.core.program import Program
from repro.core.refinement import refines_spec
from repro.core.specification import invariant_spec
from repro.core.state import State, Variable
from repro.store import artifacts, backend, certificates, keys
from repro.store.backend import MemoryStore, RemoteStore, SQLiteStore
from repro.store.serve import StoreServer


@pytest.fixture(autouse=True)
def _isolated_store():
    """Never leak an active store (or its counters) into other tests."""
    backend.set_active_store(None)
    backend.reset_stats()
    yield
    backend.set_active_store(None)
    backend.reset_stats()
    exploration.clear_all_caches()


def framed_program(b_limit: int = 2, b_touches_a: bool = False) -> Program:
    """Two independent counters with declared frames.

    ``a`` counts 0..2 inside a 0..3 domain (so ``a <= 2`` genuinely
    reads ``a``); ``b`` counts up to ``b_limit``.  With
    ``b_touches_a=True`` the ``b`` action also (idly) writes ``a``,
    making its frame interfere with the spec.
    """
    variables = [Variable("a", [0, 1, 2, 3]), Variable("b", [0, 1, 2])]
    inc_a = Action(
        "incA",
        Predicate(lambda s: s["a"] < 2, "a<2"),
        assign(a=lambda s: s["a"] + 1),
        reads=["a"],
        writes=["a"],
    )
    if b_touches_a:
        inc_b = Action(
            "incB",
            Predicate(lambda s, lim=b_limit: s["b"] < lim, f"b<{b_limit}"),
            assign(b=lambda s: s["b"] + 1, a=lambda s: s["a"]),
            reads=["a", "b"],
            writes=["a", "b"],
        )
    else:
        inc_b = Action(
            "incB",
            Predicate(lambda s, lim=b_limit: s["b"] < lim, f"b<{b_limit}"),
            assign(b=lambda s: s["b"] + 1),
            reads=["b"],
            writes=["b"],
        )
    return Program(variables, [inc_a, inc_b], name="framed")


SPEC = invariant_spec(var_in("a", [0, 1, 2]))
#: closed in framed_program (incA caps at a=2) and genuinely reads "a"
FROM = var_in("a", [0, 1, 2])


class TestVerifyParity:
    def _verify_all(self, store=None):
        out = io.StringIO()
        argv = ["verify", "--all"] + ([] if store is None else ["--store", store])
        assert main(argv, out=out) == 0
        lines = out.getvalue().splitlines()
        return [line for line in lines if not line.startswith("store:")]

    def test_cold_warm_and_storeless_outputs_identical(self, tmp_path):
        spec = str(tmp_path / "certs.sqlite")
        baseline = self._verify_all()

        exploration.clear_all_caches()
        cold = self._verify_all(store=spec)
        assert cold == baseline

        exploration.clear_all_caches()
        backend.reset_stats()
        warm = self._verify_all(store=spec)
        assert warm == baseline

        stats = backend.stats()
        assert stats["misses"] == 0
        assert stats.get("verdict_hits", 0) > 0
        assert stats["hits"] > 0


class TestKeySensitivity:
    def test_program_material_tracks_every_ingredient(self):
        base = framed_program()
        digests = {keys.digest("program", keys.program_material(p)) for p in (
            base,
            framed_program(b_limit=1),          # guard constant
            framed_program(b_touches_a=True),   # effect + frames
            Program(list(base.variables), list(base.actions), name="other"),
        )}
        assert len(digests) == 4

    def test_frame_declaration_changes_action_key(self):
        guard = Predicate(lambda s: s["b"] < 2, "b<2")
        framed = Action("incB", guard, assign(b=lambda s: s["b"] + 1),
                        reads=["b"], writes=["b"])
        bare = Action("incB", guard, assign(b=lambda s: s["b"] + 1))
        assert keys.action_material(framed) != keys.action_material(bare)

    def test_domain_changes_program_key(self):
        narrow = Program([Variable("a", [0, 1])], [], name="p")
        wide = Program([Variable("a", [0, 1, 2])], [], name="p")
        assert keys.program_material(narrow) != keys.program_material(wide)

    def test_spec_material_tracks_predicates(self):
        assert keys.spec_material(invariant_spec(var_eq("a", 0))) != \
            keys.spec_material(invariant_spec(var_eq("a", 1)))

    def test_certificate_key_tracks_symmetry_flag(self):
        program = framed_program()
        plain = certificates.certificate_key(
            "t", program, None, SPEC, None, FROM, symmetric=False)
        quotient = certificates.certificate_key(
            "t", program, None, SPEC, None, FROM, symmetric=True)
        assert plain != quotient


class TestIncrementalReuse:
    def _fresh_verdict(self, program):
        backend.set_active_store(None)
        exploration.clear_all_caches()
        return refines_spec(program, SPEC, FROM)

    def test_frame_disjoint_edit_reuses_verdict(self, tmp_path):
        backend.set_active_store(str(tmp_path / "inc.sqlite"))
        original = refines_spec(framed_program(), SPEC, FROM)
        assert original.ok

        edited = framed_program(b_limit=1)  # edit touches only "b"
        backend.reset_stats()
        reused = refines_spec(edited, SPEC, FROM)
        stats = backend.stats()
        assert stats.get("obligations_reused", 0) >= 1
        assert reused.ok

        assert self._fresh_verdict(edited).ok == reused.ok

    def test_interfering_edit_recomputes(self, tmp_path):
        backend.set_active_store(str(tmp_path / "inc.sqlite"))
        assert refines_spec(framed_program(), SPEC, FROM).ok

        edited = framed_program(b_touches_a=True)  # frame now covers "a"
        backend.reset_stats()
        recomputed = refines_spec(edited, SPEC, FROM)
        assert backend.stats().get("obligations_reused", 0) == 0
        assert recomputed.ok

        assert self._fresh_verdict(edited).ok == recomputed.ok

    def test_failing_verdicts_never_transfer(self, tmp_path):
        backend.set_active_store(str(tmp_path / "inc.sqlite"))
        bad_spec = invariant_spec(var_in("a", [0, 1]))  # violated at a=2
        failing = refines_spec(framed_program(), bad_spec, FROM)
        assert not failing.ok

        edited = framed_program(b_limit=1)
        backend.reset_stats()
        verdict = refines_spec(edited, bad_spec, FROM)
        assert backend.stats().get("obligations_reused", 0) == 0
        assert not verdict.ok

    def test_exact_replay_on_identical_rerun(self, tmp_path):
        backend.set_active_store(str(tmp_path / "inc.sqlite"))
        program = framed_program()
        first = refines_spec(program, SPEC, FROM)

        exploration.clear_all_caches()
        backend.reset_stats()
        again = refines_spec(framed_program(), SPEC, FROM)
        stats = backend.stats()
        assert stats.get("obligation_hits", 0) >= 1
        assert again.ok == first.ok
        assert str(again) == str(first)


class TestCacheReset:
    def test_clear_all_caches_closes_handle_keeps_store_active(self, tmp_path):
        store = SQLiteStore(tmp_path / "handles.sqlite")
        backend.set_active_store(store)
        store.get("missing")
        assert store.is_open

        exploration.clear_all_caches()
        assert not store.is_open
        assert backend.active_store() is store

        store.get("missing")  # transparently reopens
        assert store.is_open

    def test_set_active_store_none_deactivates(self, tmp_path):
        backend.set_active_store(str(tmp_path / "x.sqlite"))
        assert backend.active_store() is not None
        backend.set_active_store(None)
        assert backend.active_store() is None

    def test_active_spec_round_trips(self, tmp_path):
        path = str(tmp_path / "spec.sqlite")
        backend.set_active_store(path)
        assert backend.active_spec() == path
        backend.set_active_store(MemoryStore())
        assert backend.active_spec() is None  # process-local, no spec


class TestEngineCacheKey:
    def test_interpreted_oracle_never_served_columnar_system(self):
        program = framed_program()
        starts = list(program.states())
        exploration.clear_system_cache()
        compiled = exploration.explored_system(program, starts)
        memoized = exploration.explored_system(program, starts)
        assert memoized is compiled

        kernels.set_backend("interpreted")
        try:
            oracle = exploration.explored_system(program, starts)
            assert oracle is not compiled
        finally:
            kernels.set_backend("auto")
        assert oracle.states == compiled.states


def _edit_ids(data, group, part, edit):
    """Apply ``edit`` to one stored id array of a graph payload."""
    parts = list(data["edges"][group])
    ids = np.frombuffer(parts[part], dtype="<i8").copy()
    parts[part] = edit(ids).astype("<i8").tobytes()
    edges = list(data["edges"])
    edges[group] = tuple(parts)
    data["edges"] = tuple(edges)


def _set_id(group, part, index, value):
    def corrupt(data):
        def edit(ids):
            ids[index] = value
            return ids
        _edit_ids(data, group, part, edit)
    return corrupt


def _as_v1_minus_last_row(data):
    """The old row payload (``"v": 1``), without its last id row."""
    data["v"] = 1
    data["names"] = ["inc"]
    data["prows"] = [((0, 1),), ((0, 2),), ((0, 3),)]
    data["frows"] = [(), (), (), ()]
    del data["edges"]


class TestGraphArtifactChecks:
    """A whole-graph artifact that fails a structural check, or has the
    old row format, is not served: the graph is explored again and
    saved over it, so the graph served next equals a fresh exploration.
    """

    @staticmethod
    def _counter():
        inc = Action(
            "inc", Predicate(lambda s: s["x"] < 3, "x<3"),
            assign(x=lambda s: s["x"] + 1),
        )
        return Program([Variable("x", [0, 1, 2, 3])], [inc], name="counter")

    @staticmethod
    def _graph(ts):
        states = tuple(ts.states)
        program_ids, fault_ids, names_p, names_f = ts._edge_arrays
        return (
            states,
            tuple(tuple(ts.program_edges_from(s)) for s in states),
            tuple(tuple(ts.fault_edges_from(s)) for s in states),
            tuple(ts.deadlock_states()),
            tuple(part.tolist() for part in program_ids + fault_ids),
            (tuple(names_p), tuple(names_f)),
        )

    @pytest.mark.parametrize("corrupt", [
        _as_v1_minus_last_row,
        # one length per group
        lambda data: _edit_ids(data, 0, 1, lambda ids: ids[:-1]),
        # ids inside the state table, sources nondecreasing
        _set_id(0, 0, -1, 4),
        _set_id(0, 0, 0, -1),
        _set_id(0, 1, -1, 4),
        _set_id(0, 1, 0, -1),
        _set_id(0, 0, 0, 2),
        # action positions inside the group's names
        _set_id(0, 2, 0, 1),
        _set_id(0, 2, 0, -1),
        # at most as many start states as states
        lambda data: data.update(n_starts=5),
        # the program's and the faults' names, in declaration order
        lambda data: data.update(names=(["dec"], [])),
        lambda data: data.update(names=(["inc"], ["reset"])),
        # a state table of distinct states, each fitting its schema
        lambda data: data["states"].__setitem__(0, (1, (0,))),
        lambda data: data["states"].__setitem__(-1, (0, ())),
        lambda data: data["states"].__setitem__(-1, data["states"][0]),
    ], ids=[
        "v1", "lengths", "src_high", "src_negative", "dst_high",
        "dst_negative", "src_order", "act_high", "act_negative",
        "n_starts", "program_names", "fault_names", "schema_index",
        "values_length", "repeated_state",
    ])
    def test_malformed_graph_is_explored_again(self, corrupt):
        program = self._counter()
        starts = [State(x=0)]
        reached = var_eq("x", 3)
        fresh = exploration.TransitionSystem(program, starts)
        store = backend.set_active_store(MemoryStore())
        exploration.explored_system(program, starts)
        key = artifacts.system_key(
            program, keys.states_digest(starts), (),
            exploration.DEFAULT_MAX_STATES, False,
        )
        data = backend.loads(store.get(key))
        corrupt(data)
        store.put(key, backend.dumps(data), kind="system")

        exploration.clear_system_cache()
        backend.reset_stats()
        explored = exploration.explored_system(program, starts)
        assert backend.stats().get("graph_hits", 0) == 0
        assert check_leads_to(explored, TRUE, reached).ok

        exploration.clear_system_cache()
        backend.reset_stats()
        served = exploration.explored_system(program, starts)
        assert backend.stats().get("graph_hits") == 1
        assert self._graph(served) == self._graph(fresh)
        assert check_leads_to(served, TRUE, reached).ok


class TestServe:
    def test_remote_store_round_trip(self):
        backing = MemoryStore()
        server = StoreServer(backing, port=0)
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            ready.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10)
        try:
            client = RemoteStore(f"http://127.0.0.1:{server.port}")
            assert client.get("deadbeef") is None  # 404 -> miss, not error
            client.put("deadbeef", b"artifact-bytes")
            assert client.get("deadbeef") == b"artifact-bytes"
            assert backing._data["deadbeef"] == b"artifact-bytes"
            assert client.errors == 0 and not client.dormant

            with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/stats", timeout=5
            ) as response:
                stats = json.loads(response.read())
            assert stats["puts"] == 1 and stats["requests"] >= 3
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            # cancel the parked keep-alive handler before closing, or
            # its coroutine is garbage-collected mid-await
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            # close the listening socket StoreServer.start opened
            loop.run_until_complete(server.stop())
            loop.close()

    def test_dormancy_after_transport_failures(self):
        client = RemoteStore("http://127.0.0.1:1", timeout=0.2, max_failures=2)
        assert client.get("aa") is None
        assert client.get("aa") is None
        assert client.dormant
        client.put("aa", b"x")  # swallowed, no exception
        assert client.get("aa") is None

    def test_store_from_spec_dispatch(self, tmp_path):
        assert isinstance(backend.store_from_spec(":memory:"), MemoryStore)
        assert isinstance(
            backend.store_from_spec(str(tmp_path / "a.sqlite")), SQLiteStore)
        assert isinstance(
            backend.store_from_spec("http://localhost:7357"), RemoteStore)
        file_store = backend.store_from_spec(str(tmp_path / "dir"))
        assert type(file_store).__name__ == "FileStore"
