"""Property tests for the big-int bit helpers behind Region, and the
Region.to_predicate → region() round-trip on bundled programs."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exploration import TransitionSystem
from repro.core.regions import (
    Region,
    StateIndex,
    bits_of_ids,
    first_bit,
    iter_bits,
    system_index,
    universe_index,
)
from repro.core.state import State


# ---------------------------------------------------------------------------
# bit twiddling: iter_bits / first_bit / bits_of_ids
# ---------------------------------------------------------------------------

#: a universe size and a subset of its ids
id_sets = st.integers(min_value=1, max_value=512).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
    )
)


class TestBitHelpers:
    @given(id_sets)
    @settings(max_examples=200)
    def test_bits_of_ids_iter_bits_round_trip(self, case):
        n, ids = case
        bits = bits_of_ids(ids, n)
        assert list(iter_bits(bits, n)) == sorted(ids)

    @given(id_sets)
    @settings(max_examples=200)
    def test_bits_of_ids_popcount(self, case):
        n, ids = case
        assert bits_of_ids(ids, n).bit_count() == len(ids)

    @given(id_sets)
    @settings(max_examples=100)
    def test_first_bit_is_minimum(self, case):
        n, ids = case
        bits = bits_of_ids(ids, n)
        if ids:
            assert first_bit(bits) == min(ids)

    def test_empty_mask(self):
        assert bits_of_ids([], 64) == 0
        assert list(iter_bits(0, 64)) == []

    def test_full_mask(self):
        # dense regime of iter_bits: more than half the positions set
        n = 300
        bits = (1 << n) - 1
        assert list(iter_bits(bits, n)) == list(range(n))
        assert first_bit(bits) == 0
        assert bits_of_ids(range(n), n) == bits

    def test_sparse_mask_crosses_byte_boundaries(self):
        # sparse regime: isolated bits far apart, including byte edges
        n = 1 << 12
        ids = [0, 7, 8, 63, 64, 65, 1000, n - 1]
        bits = bits_of_ids(ids, n)
        assert list(iter_bits(bits, n)) == ids
        assert first_bit(bits) == 0

    def test_single_high_bit(self):
        n = 4096
        bits = bits_of_ids([n - 1], n)
        assert list(iter_bits(bits, n)) == [n - 1]
        assert first_bit(bits) == n - 1

    @given(id_sets)
    @settings(max_examples=100)
    def test_iter_bits_regimes_agree(self, case):
        """The sparse bit-peeling and dense byte-scanning paths must
        enumerate identically; force both by flipping the density."""
        n, ids = case
        bits = bits_of_ids(ids, n)
        complement = bits_of_ids(set(range(n)) - ids, n)
        assert sorted(
            set(iter_bits(bits, n)) | set(iter_bits(complement, n))
        ) == list(range(n))


# ---------------------------------------------------------------------------
# Region.to_predicate -> region() round trip
# ---------------------------------------------------------------------------

def _round_trip(program, predicate):
    index = universe_index(program)
    if index is None:
        index = StateIndex(program.states())
    original = index.region(predicate)
    # materialize as an extensional predicate, then sweep it back
    back = index.region(original.to_predicate(name="rt"))
    assert back.bits == original.bits
    # and the complement round-trips too
    inverted = ~original
    assert index.region(inverted.to_predicate()).bits == inverted.bits


class TestRegionPredicateRoundTrip:
    def test_token_ring(self):
        from repro.programs import token_ring

        model = token_ring.build(3)
        _round_trip(model.ring, model.invariant)

    def test_tmr(self):
        from repro.programs import tmr

        model = tmr.build()
        _round_trip(model.tmr, model.invariant)


# ---------------------------------------------------------------------------
# a Region's bits are ids of its own index
# ---------------------------------------------------------------------------

class TestRegionIndexes:
    def test_regions_of_one_index_combine(self):
        index = StateIndex([State(x=0), State(x=1), State(x=2)])
        low = index.region_of([State(x=0), State(x=1)])
        high = index.region_of([State(x=1), State(x=2)])
        assert (low & high).to_set() == {State(x=1)}
        assert len(low | high) == 3
        assert (low - high).to_set() == {State(x=0)}

    @pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.sub])
    def test_regions_of_different_indexes_do_not_combine(self, op):
        # id 0 is x=0 in one index and x=1 in the other
        ours = StateIndex([State(x=0), State(x=1)])
        theirs = StateIndex([State(x=1), State(x=0)])
        with pytest.raises(ValueError, match="different indexes"):
            op(ours.full_region(), theirs.region_of([State(x=1)]))

    def test_system_and_universe_regions_do_not_combine(self):
        from repro.programs import token_ring

        ring = token_ring.build(3).ring
        universe = universe_index(ring)
        ts = TransitionSystem(ring, universe.states[-1:])
        index = system_index(ts)
        assert isinstance(index, StateIndex)
        with pytest.raises(ValueError, match="different indexes"):
            index.full_region() & universe.region_of(ts.states)
        assert (
            index.full_region() & index.region_of(universe.states)
        ) == index.full_region()
