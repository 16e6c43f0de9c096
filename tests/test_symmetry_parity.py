"""Quotient exploration vs. unreduced oracles.

Symmetry declarations are *claims* and the quotient trusts them; this
suite is the exhaustive net behind the trust (the other net, lint rule
DC106, probes differentially).  For every bundled symmetric scenario it
pins the quotient's verdicts — closure, deadlocks, tolerance class,
synthesized invariants up to orbit — against the unreduced system, and
it unit-tests the canonicalization machinery itself: idempotence,
constancy on orbits, brute-force minimality, interner round-trips, and
the refusal paths for undeclared or non-invariant inputs.
"""

import itertools

import pytest

from repro.core import (
    BOTTOM,
    Predicate,
    ReplicaSymmetry,
    RingRotation,
    State,
    SymmetryError,
    TRUE,
    TransitionSystem,
    Variable,
    explored_system,
    is_failsafe_tolerant,
    is_masking_tolerant,
    is_nonmasking_tolerant,
    largest_invariant_for_safety,
    state_space,
)
from repro.programs import byzantine, tmr, token_ring


def _span_states(model_program, span):
    return [s for s in state_space(model_program.variables) if span.fn(s)]


def _quotient_pair(program, starts, faults):
    full = explored_system(program, starts, faults)
    quot = explored_system(program, starts, faults, symmetric=True)
    return full, quot


# -- canonicalization unit tests ---------------------------------------------

class TestCanonicalizer:
    def test_idempotent_and_pointer_unique(self, tmr_model):
        program = tmr_model.tmr
        canon = program.symmetry.canonicalizer(program).canonical
        for state in state_space(program.variables):
            rep = canon(state)
            assert canon(rep) is rep
            assert canon(state) is rep  # memoized to the pooled object

    def test_constant_on_orbits(self, tmr_model, byz, ring):
        for program in (tmr_model.tmr, byz.masking, ring.ring):
            canon = program.symmetry.canonicalizer(program).canonical
            for state in list(state_space(program.variables))[:200]:
                for generator in program.symmetry.generators():
                    assert canon(generator.apply(state)) is canon(state)

    def test_minimality_against_brute_force(self, tmr_model, ring):
        """The representative is the minimum over all |G| images, in
        the rank order of the variables the group moves (block-major
        for TMR's S_3, declaration order for the ring's Z_K)."""
        tmr_symmetry = tmr_model.tmr.symmetry
        ring_symmetry = ring.ring.symmetry
        for program, elements, moved in (
            (
                tmr_model.tmr,
                [tmr_symmetry.element(perm)
                 for perm in itertools.permutations(range(3))],
                [name for block in tmr_symmetry.blocks for name in block],
            ),
            (
                ring.ring,
                [ring_symmetry.element(t)
                 for t in range(ring_symmetry.modulus)],
                list(ring_symmetry.names),
            ),
        ):
            canon = program.symmetry.canonicalizer(program).canonical
            domains = program._domains

            def rank_key(state):
                return tuple(domains[n].index(state[n]) for n in moved)

            for state in state_space(program.variables):
                orbit = {g.apply(state) for g in elements}
                assert canon(state) in orbit
                # every orbit member canonicalizes to the same
                # representative, and it is the orbit's minimum
                assert len({canon(member) for member in orbit}) == 1
                assert rank_key(canon(state)) == min(map(rank_key, orbit))

    def test_interner_round_trip(self, tmr_model):
        program = tmr_model.tmr
        interner = program.symmetry.canonicalizer(program)
        states = list(state_space(program.variables))
        reps = {interner.canonical(s) for s in states}
        assert all(s in interner for s in states)
        # the memo holds every queried state plus the pooled reps
        assert len(interner) == len(states)
        assert all(interner.canonical(r) is r for r in reps)

    def test_value_rotation_divides_by_k(self, ring):
        states = list(state_space(ring.ring.variables))
        canon = ring.ring.symmetry.canonicalizer(ring.ring).canonical
        reps = {canon(s) for s in states}
        assert len(states) == ring.k ** ring.size
        assert len(reps) * ring.k == len(states)


# -- column canonicalizers vs. the per-state plans ---------------------------

def _ring_rotation_case():
    """A 4-block ring declared here: each block pairs a ⊥/0/1 value
    with a flag, so block keys mix domain types and widths."""
    variables = []
    for i in range(4):
        variables.append(Variable(f"v{i}", (BOTTOM, 0, 1)))
        variables.append(Variable(f"f{i}", (False, True)))
    symmetry = RingRotation(tuple((f"v{i}", f"f{i}") for i in range(4)))
    elements = [symmetry.element(r) for r in range(4)]
    return symmetry, variables, list(state_space(variables)), elements


def _value_rotation_case(size, k):
    program = token_ring.build(size, k).ring
    symmetry = program.symmetry
    elements = [symmetry.element(t) for t in range(k)]
    return (symmetry, program.variables,
            list(state_space(program.variables)), elements)


def _replica_case(program, states=None):
    """``program``'s S_k with all k! elements, over ``states`` (default:
    the whole space)."""
    if states is None:
        states = list(state_space(program.variables))
    symmetry = program.symmetry
    elements = [
        symmetry.element(perm)
        for perm in itertools.permutations(range(len(symmetry.blocks)))
    ]
    return symmetry, program.variables, states, elements


def _byzantine_span_case():
    b = byzantine.build()
    return _replica_case(b.masking, _span_states(b.masking, b.span))


def _family5_case():
    """The k=5 family (7,558,272 codes): the unreduced reachable states
    of its protocol plus a seeded sample of the whole space."""
    from repro.core.symmetry import _sample_states

    ngs = (1, 2, 3, 4, 5)
    model = byzantine.build_family(ngs)
    reached = explored_system(model.ib, byzantine.initial_states(ngs)).states
    states = list(dict.fromkeys(
        list(reached) + list(_sample_states(model.masking.variables, 300))
    ))
    return _replica_case(model.masking, states)


COLUMN_CASES = {
    "value_rotation_ring_n5_k4": lambda: _value_rotation_case(5, 4),
    "value_rotation_ring_n4_k7": lambda: _value_rotation_case(4, 7),
    "replica_tmr": lambda: _replica_case(tmr.build().tmr),
    "replica_byzantine_span": _byzantine_span_case,
    "replica_family_k5": _family5_case,
    "ring_rotation_4_blocks": _ring_rotation_case,
}


def _rank_columns(symmetry, variables, states):
    from repro.core.kernels import layout_for

    domains = {v.name: v.domain for v in variables}
    layout = layout_for(states[0].schema, domains)
    return layout, domains, layout.columns_from_states(states)


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
class TestColumnCanonicalizers:
    """Each group's column canonicalizer is pinned to its per-state
    plan (the oracle the interpreted engine runs) on whole state sets."""

    def test_matches_per_state_plan(self, case):
        symmetry, variables, states, _ = COLUMN_CASES[case]()
        layout, domains, cols = _rank_columns(symmetry, variables, states)
        before = cols.copy()
        canon = symmetry._compile_columns(layout)(cols)
        plan = symmetry._compile(layout.schema, domains)
        expected = layout.columns_from_states([
            State(dict(zip(layout.schema.names, plan(s.values_tuple))))
            for s in states
        ])
        assert (canon == expected).all()
        assert (cols == before).all()  # the input block is not written

    def test_idempotent(self, case):
        symmetry, variables, states, _ = COLUMN_CASES[case]()
        layout, _, cols = _rank_columns(symmetry, variables, states)
        canon_cols = symmetry._compile_columns(layout)
        canon = canon_cols(cols)
        assert (canon_cols(canon) == canon).all()

    def test_constant_on_orbits(self, case):
        symmetry, variables, states, elements = COLUMN_CASES[case]()
        layout, _, cols = _rank_columns(symmetry, variables, states)
        canon_cols = symmetry._compile_columns(layout)
        canon = canon_cols(cols)
        for element in elements:
            images = layout.columns_from_states(
                [element.apply(s) for s in states]
            )
            assert (canon_cols(images) == canon).all(), element


class TestRefusals:
    def test_symmetric_mode_needs_declaration(self, memory):
        with pytest.raises(SymmetryError):
            TransitionSystem(
                memory.p, list(state_space(memory.p.variables))[:1],
                symmetric=True,
            )

    def test_asymmetric_predicate_refused(self, tmr_model):
        program = tmr_model.tmr
        x_good = Predicate(lambda s: s["x"] == 1, name="x=uncor")
        with pytest.raises(SymmetryError):
            program.symmetry.require_predicate_invariant(
                x_good, program.variables, "test"
            )

    def test_validation_memo_ignores_reused_ids(self):
        """Once a validated predicate dies its id is free for a new
        object.  A lopsided predicate that receives that id must still
        be checked, and refused, not waved through by the memo."""
        program = tmr.build().tmr
        symmetry = program.symmetry
        for _ in range(50):  # until CPython hands out the dead id
            accepted = Predicate(lambda s: True, name="true")
            symmetry.require_predicate_invariant(
                accepted, program.variables, "test"
            )
            dead = id(accepted)
            del accepted
            lopsided = Predicate(lambda s: s["x"] == 0, name="x=0")
            if id(lopsided) == dead:
                break
        with pytest.raises(SymmetryError):
            symmetry.require_predicate_invariant(
                lopsided, program.variables, "test"
            )

    def test_sample_memo_ignores_reused_ids(self):
        """The validation sample of a dead variables list is not served
        for a new list that receives its id."""
        symmetry = ReplicaSymmetry((("a",), ("b",)))
        for _ in range(50):
            first = [Variable("a", (0, 1)), Variable("b", (0, 1))]
            symmetry._validation_states(first)
            dead = id(first)
            del first
            second = [Variable("a", (0, 1, 2)), Variable("b", (0, 1, 2))]
            if id(second) == dead:
                break
        assert len(symmetry._validation_states(second)) == 9

    @pytest.mark.parametrize("case", ["token_ring", "byzantine"])
    def test_column_sampler_refuses_as_the_state_sampler(self, case):
        """An expression predicate is sampled on rank columns (the
        sample's and its images'); its refusal names the same first
        (generator, state) as the per-state sampler, in the same text."""
        if case == "token_ring":
            program, expr = token_ring.build(4).ring, ("eq_const", "x0", 0)
        else:
            program, expr = byzantine.build().masking, ("eq_const", "d1", 0)
        symmetry = program.symmetry
        messages = []
        for predicate in (
            Predicate(expr=expr, name="p"),
            Predicate(lambda s, n=expr[1], v=expr[2]: s[n] == v, name="p"),
        ):
            with pytest.raises(SymmetryError) as refused:
                symmetry.require_predicate_invariant(
                    predicate, program.variables, "test"
                )
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        # the column path ran, and accepts the model's invariant
        assert symmetry._validation_columns(program.variables) is not None
        symmetry.require_predicate_invariant(
            Predicate(expr=("count", (expr,), "<=", 1), name="q"),
            program.variables, "test",
        )

    def test_asymmetric_tolerance_check_refused(self, tmr_model):
        m = tmr_model
        lopsided = Predicate(lambda s: s["x"] == 1, name="x=uncor")
        with pytest.raises(SymmetryError):
            is_masking_tolerant(
                m.tmr, m.faults, m.spec, lopsided, m.span, symmetric=True
            )

    def test_misdeclared_blocks_rejected(self, tmr_model):
        bad = ReplicaSymmetry((("x", "y"), ("z", "out")))
        with pytest.raises(SymmetryError):
            bad.validate(tmr_model.tmr.variables)

    def test_duplicate_action_orbits_rejected(self):
        with pytest.raises(SymmetryError):
            ReplicaSymmetry(
                (("x",), ("y",)),
                action_orbits=[("A", "B"), ("B", "C")],
            )

    def test_cache_keys_separate(self, tmr_model):
        m = tmr_model
        starts = _span_states(m.tmr, m.span)
        full, quot = _quotient_pair(m.tmr, starts, m.faults)
        assert full is not quot
        assert len(quot.states) < len(full.states)
        assert explored_system(m.tmr, starts, m.faults, symmetric=True) is quot


# -- quotient-vs-oracle parity -----------------------------------------------

def _assert_graph_parity(full, quot, program):
    """Deadlocks and closure agree between the quotient and the full
    graph (quotient sets are the canonical images of the full sets)."""
    canon = program.symmetry.canonicalizer(program).canonical
    assert {canon(s) for s in full.states} == set(quot.states)
    assert {canon(s) for s in full.deadlock_states()} == set(
        quot.deadlock_states()
    )


class TestTmrParity:
    def test_masking_verdict(self, tmr_model):
        m = tmr_model
        oracle = is_masking_tolerant(m.tmr, m.faults, m.spec, m.invariant, m.span)
        quotient = is_masking_tolerant(
            m.tmr, m.faults, m.spec, m.invariant, m.span, symmetric=True
        )
        assert bool(oracle) and bool(quotient)

    def test_graph_parity(self, tmr_model):
        m = tmr_model
        full, quot = _quotient_pair(m.tmr, _span_states(m.tmr, m.span), m.faults)
        _assert_graph_parity(full, quot, m.tmr)
        assert len(quot.states) < len(full.states)

    def test_closure_parity(self, tmr_model):
        m = tmr_model
        full, quot = _quotient_pair(m.tmr, _span_states(m.tmr, m.span), m.faults)
        for predicate in (m.invariant, m.span):
            assert bool(full.is_closed(predicate)) == bool(
                quot.is_closed(predicate)
            )

    def test_synthesized_invariant_is_orbit_union(self, tmr_model):
        """largest_invariant_for_safety lands on a union of orbits, so
        its verdict reads identically off either graph."""
        m = tmr_model
        gfp = largest_invariant_for_safety(m.tmr, m.spec)
        canon = m.tmr.symmetry.canonicalizer(m.tmr).canonical
        for state in state_space(m.tmr.variables):
            assert bool(gfp.fn(state)) == bool(gfp.fn(canon(state)))


class TestNmrParity:
    def test_masking_verdict_and_reduction(self, nmr5):
        m = nmr5
        oracle = is_masking_tolerant(m.nmr, m.faults, m.spec, m.invariant, m.span)
        quotient = is_masking_tolerant(
            m.nmr, m.faults, m.spec, m.invariant, m.span, symmetric=True
        )
        assert bool(oracle) and bool(quotient)

    def test_reduction_at_least_3x(self, nmr5):
        m = nmr5
        full, quot = _quotient_pair(m.nmr, _span_states(m.nmr, m.span), m.faults)
        _assert_graph_parity(full, quot, m.nmr)
        # reachable input vectors collapse to corruption *counts*:
        # sum(C(5,j), j<=2) = 16 vectors -> 3 orbits, x2 for out
        assert len(full.states) == 32
        assert len(quot.states) == 6
        assert len(full.states) >= 3 * len(quot.states)


class TestByzantineParity:
    def test_failsafe_verdict(self, byz):
        b = byz
        oracle = is_failsafe_tolerant(
            b.failsafe, b.faults, b.spec, b.invariant, b.span
        )
        quotient = is_failsafe_tolerant(
            b.failsafe, b.faults, b.spec, b.invariant, b.span, symmetric=True
        )
        assert bool(oracle) and bool(quotient)

    def test_masking_verdict(self, byz):
        """The regression that motivated orbit-granular fairness: the
        quotient re-sorts replica blocks along edges, so no *single*
        IB2.j stays enabled across a lie-cycle SCC even though the full
        graph starves one; judging starvation per declared action orbit
        restores the oracle verdict."""
        b = byz
        oracle = is_masking_tolerant(
            b.masking, b.faults, b.spec, b.invariant, b.span
        )
        quotient = is_masking_tolerant(
            b.masking, b.faults, b.spec, b.invariant, b.span, symmetric=True
        )
        assert bool(oracle) and bool(quotient)

    def test_reduction_at_least_3x(self, byz):
        b = byz
        full, quot = _quotient_pair(
            b.masking, _span_states(b.masking, b.span), b.faults
        )
        _assert_graph_parity(full, quot, b.masking)
        assert len(full.states) >= 3 * len(quot.states)

    def test_family_builder_matches_bundled_model(self):
        """build_family(3) is the generalized construction; its quotient
        verdicts and state counts match the hand-built build()."""
        b3 = byzantine.build_family((1, 2, 3))
        b = byzantine.build()
        verdict = is_masking_tolerant(
            b3.masking, b3.faults, b3.spec, b3.invariant, b3.span,
            symmetric=True,
        )
        assert bool(verdict)
        for model in (b, b3):
            starts = _span_states(model.masking, model.span)
            quot = explored_system(
                model.masking, starts, model.faults, symmetric=True
            )
            full = explored_system(model.masking, starts, model.faults)
            assert len(full.states) == 520
            assert len(quot.states) == 144


class TestTokenRingParity:
    def test_nonmasking_verdict(self, ring):
        r = ring
        oracle = is_nonmasking_tolerant(
            r.ring, r.faults, r.spec, r.invariant, TRUE
        )
        quotient = is_nonmasking_tolerant(
            r.ring, r.faults, r.spec, r.invariant, TRUE, symmetric=True
        )
        assert bool(oracle) and bool(quotient)

    def test_quotient_divides_by_k(self, ring):
        r = ring
        starts = list(state_space(r.ring.variables))
        full, quot = _quotient_pair(r.ring, starts, r.faults)
        _assert_graph_parity(full, quot, r.ring)
        assert len(full.states) == r.k * len(quot.states)

    def test_ablation_counterexample_survives_quotient(self):
        """K = n - 2 admits a fair non-stabilizing cycle (the builder
        refuses it, so rebuild without validation); the quotient must
        still find it — liveness violations are preserved, not just
        passes."""
        from repro.core import (
            Action,
            Program,
            ValueRotation,
            Variable,
            assign,
            check_leads_to,
        )
        from repro.programs.token_ring import has_token

        size, k = 5, 3
        variables = [Variable(f"x{i}", list(range(k))) for i in range(size)]
        tokens = {i: has_token(i, size) for i in range(size)}
        actions = [
            Action(
                "move0", tokens[0],
                assign(x0=lambda s, n=size, kk=k: (s[f"x{n - 1}"] + 1) % kk),
                reads={"x0", f"x{size - 1}"}, writes={"x0"},
            )
        ] + [
            Action(
                f"move{i}", tokens[i],
                assign(**{f"x{i}": lambda s, i=i: s[f"x{i - 1}"]}),
                reads={f"x{i}", f"x{i - 1}"}, writes={f"x{i}"},
            )
            for i in range(1, size)
        ]
        under_k = Program(
            variables, actions, name=f"ring(n={size},K={k})",
            symmetry=ValueRotation(
                tuple(f"x{i}" for i in range(size)), modulus=k
            ),
        )
        one = Predicate(
            lambda s, ts=tokens: sum(1 for t in ts.values() if t(s)) == 1,
            name="one token",
        )
        starts = list(state_space(variables))
        oracle = check_leads_to(
            TransitionSystem(under_k, starts), TRUE, one
        )
        quotient = check_leads_to(
            TransitionSystem(under_k, starts, symmetric=True), TRUE, one
        )
        assert not bool(oracle)
        assert not bool(quotient)


class TestLintNet:
    def test_dc106_catches_invalid_process_rotation(self, ring):
        """Dijkstra's ring is not process-rotation symmetric (process
        0's increment is distinguished); DC106 flags the bad claim."""
        from repro.analysis import lint_program

        broken = ring.ring.with_symmetry(
            RingRotation(tuple((f"x{i}",) for i in range(ring.size)))
        )
        report = lint_program(broken, invariant=ring.invariant,
                              faults=ring.faults)
        assert report.by_code("DC106")

    def test_dc106_catches_missing_action_orbits(self, tmr_model):
        """Valid blocks but undeclared action orbits: the actions are
        then claimed fixed, which DC106 refutes (and which would make
        quotient fairness unsound)."""
        from repro.analysis import lint_program

        m = tmr_model
        no_orbits = m.tmr.with_symmetry(
            ReplicaSymmetry((("x",), ("y",), ("z",)))
        )
        report = lint_program(no_orbits, invariant=m.invariant,
                              faults=m.faults)
        assert report.by_code("DC106")

    def test_declared_catalogue_symmetries_are_clean(self, tmr_model, byz, ring):
        from repro.analysis import build_probe, check_symmetry

        for program, faults in (
            (tmr_model.tmr, tmr_model.faults),
            (byz.masking, byz.faults),
            (byz.failsafe, byz.faults),
            (ring.ring, ring.faults),
        ):
            probe = build_probe(program.variables)
            assert not check_symmetry(program, probe, faults=faults)
