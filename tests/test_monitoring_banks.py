"""Detector banks, syndrome algebra, and the corrector decoder."""

import pytest

from repro.core.predicate import Predicate, var_eq, var_in, var_ne
from repro.core.regions import StateIndex, universe_index
from repro.core.state import State, Variable, state_space
from repro.monitoring import (
    BankDetector,
    DetectorBank,
    SyndromeDecoder,
    distance,
    fired_indices,
    fired_names,
    format_syndrome,
    parse_syndrome,
    weight,
)


# ---------------------------------------------------------------------------
# syndrome algebra
# ---------------------------------------------------------------------------

class TestSyndromeAlgebra:
    def test_weight_and_distance(self):
        assert weight(0) == 0
        assert weight(0b1011) == 3
        assert distance(0b1011, 0b1011) == 0
        assert distance(0b1011, 0b0011) == 1
        assert distance(0, 0b111) == 3

    def test_fired_indices_ascending(self):
        assert list(fired_indices(0)) == []
        assert list(fired_indices(0b101001)) == [0, 3, 5]

    def test_fired_names(self):
        names = ("a", "b", "c")
        assert fired_names(0b101, names) == ["a", "c"]
        assert fired_names(0, names) == []

    def test_format_parse_round_trip(self):
        for syndrome in (0, 1, 0b10, 0b1101, 0b11111):
            text = format_syndrome(syndrome, 5)
            assert len(text) == 5
            assert parse_syndrome(text) == syndrome

    def test_format_puts_detector_zero_leftmost(self):
        assert format_syndrome(0b01, 2) == "10"
        assert format_syndrome(0b10, 2) == "01"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_syndrome("10x1")


# ---------------------------------------------------------------------------
# bank construction and evaluation
# ---------------------------------------------------------------------------

def toy_variables():
    return [Variable("x", (0, 1, 2)), Variable("y", (0, 1))]


def toy_bank():
    return DetectorBank(
        [
            BankDetector("x_hi", var_eq("x", 2), frozenset({"x"})),
            BankDetector("y_hot", var_eq("y", 1), frozenset({"y"})),
            BankDetector("skew", var_ne("x", 0), frozenset({"x"})),
        ],
        toy_variables(),
        name="toy",
    )


class TestDetectorBank:
    def test_accepts_predicates_and_pairs(self):
        bank = DetectorBank(
            [var_eq("x", 1), ("custom", var_eq("y", 0))],
            toy_variables(),
        )
        assert bank.m == 2
        assert bank.detector_names == ("x=1", "custom")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DetectorBank(
                [("d", var_eq("x", 0)), ("d", var_eq("y", 0))],
                toy_variables(),
            )

    def test_unknown_read_frame_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            DetectorBank(
                [BankDetector("d", var_eq("x", 0), frozenset({"z"}))],
                toy_variables(),
            )

    def test_syndrome_matches_per_detector_truth(self):
        bank = toy_bank()
        for state in state_space(toy_variables()):
            syndrome = bank.syndrome(state)
            for j, detector in enumerate(bank.detectors):
                assert bool(syndrome >> j & 1) == bool(
                    detector.predicate(state)
                )

    def test_syndrome_projects_wider_states(self):
        bank = toy_bank()
        wide = State(x=2, y=1, z=99)
        assert bank.syndrome(wide) == bank.syndrome(State(x=2, y=1))

    def test_dirty_mask_follows_read_frames(self):
        bank = toy_bank()
        assert bank.dirty_mask(["x"]) == 0b101   # x_hi and skew read x
        assert bank.dirty_mask(["y"]) == 0b010
        assert bank.dirty_mask(["x", "y"]) == 0b111
        assert bank.dirty_mask(["unknown"]) == 0

    def test_unknown_frame_means_reads_everything(self):
        bank = DetectorBank(
            [BankDetector("d", var_eq("x", 0), None)], toy_variables()
        )
        assert bank.dirty_mask(["x"]) == 1
        assert bank.dirty_mask(["y"]) == 1

    def test_update_syndrome_equals_full_recompute(self):
        bank = toy_bank()
        values = [0, 0]  # schema order is sorted: (x, y)
        assert list(bank.schema.names) == ["x", "y"]
        syndrome = bank.syndrome_of_values(values)
        import random

        rng = random.Random(7)
        masks = set()
        for _ in range(300):
            written = []
            for name in rng.choice((["x"], ["y"], ["x", "y"])):
                value = rng.choice((0, 1, 2) if name == "x" else (0, 1))
                position = bank.schema.index[name]
                if values[position] != value:
                    values[position] = value
                    written.append(name)
            if not written:
                continue
            dirty = bank.dirty_mask(written)
            masks.add(dirty)
            syndrome = bank.update_syndrome(syndrome, values, dirty)
            assert syndrome == bank.syndrome_of_values(values)
        # single writes and the union of both frames, each planned once
        assert masks == {0b101, 0b010, 0b111}

    def test_rows_and_syndrome_table_match_pointwise(self):
        bank = toy_bank()
        index = StateIndex(state_space(toy_variables()), _distinct=True)
        table = dict(bank.syndrome_table(index))
        assert len(table) == index.n
        for i, state in enumerate(index.states):
            assert table[i] == bank.syndrome(state)

    def test_syndrome_table_over_region(self):
        bank = toy_bank()
        index = StateIndex(state_space(toy_variables()), _distinct=True)
        region = index.region(var_eq("y", 1))
        table = bank.syndrome_table(index, region)
        assert {i for i, _ in table} == set(region.ids())

    def test_fire_counts_and_fired_union(self):
        bank = toy_bank()
        index = StateIndex(state_space(toy_variables()), _distinct=True)
        counts = bank.fire_counts(index)
        assert counts["x_hi"] == 2    # (x=2, y=0), (x=2, y=1)
        assert counts["y_hot"] == 3
        assert counts["skew"] == 4    # x in {1, 2}
        union = bank.fired_union(index)
        healthy = [s for s in index.states if bank.syndrome(s) == 0]
        assert len(union) == index.n - len(healthy)

    def test_fired_region_by_name(self):
        bank = toy_bank()
        index = StateIndex(state_space(toy_variables()), _distinct=True)
        region = bank.fired_region(index, "y_hot")
        assert all(s["y"] == 1 for s in region.states())
        with pytest.raises(KeyError):
            bank.fired_region(index, "nope")

    def test_with_inferred_reads(self):
        bank = DetectorBank(
            [
                BankDetector("x_hi", var_eq("x", 2), None),
                BankDetector("both", var_in("y", (1,)), None),
            ],
            toy_variables(),
        )
        inferred = bank.with_inferred_reads()
        frames = {d.name: d.reads for d in inferred.detectors}
        assert frames["x_hi"] == frozenset({"x"})
        assert frames["both"] == frozenset({"y"})
        # incremental evaluation with inferred frames stays exact
        values = [2, 0]
        assert inferred.syndrome_of_values(values) == \
            bank.syndrome_of_values(values)


class TestWitnessBank:
    def test_from_witnesses_token_ring(self):
        from repro.programs import token_ring
        from repro.theory import witnesses_for

        model = token_ring.build(3)
        # embed each base action's witness into the same program shape
        witnesses = witnesses_for(
            model.ring, model.ring, model.invariant, model.spec
        )
        bank = DetectorBank.from_witnesses(witnesses, model.ring)
        assert bank.m == len(model.ring.actions)
        index = universe_index(model.ring)
        assert index is not None
        # every witness Z = g ∧ g' holds exactly where its predicate says
        for detector, row in zip(bank.detectors, bank.rows(index)):
            expected = index.region_bits(detector.predicate)
            assert row == expected

    def test_coverage_report(self):
        from repro.programs import token_ring

        model = token_ring.build(3)
        bank = DetectorBank(
            [("broken", ~model.invariant)],
            model.ring.variables,
            name="tr",
        )
        coverage = bank.coverage(
            model.ring, model.faults, model.spec, span=model.invariant
        )
        # the bank fires exactly on ¬invariant, so any fault-unsafe
        # state outside the invariant is covered
        assert 0.0 <= coverage.coverage <= 1.0
        assert coverage.fire_counts["broken"] == 0  # span is the invariant
        text = coverage.format()
        assert "bank tr" in text and "broken" in text


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

class TestSyndromeDecoder:
    def test_exact_match(self):
        decoder = SyndromeDecoder(3)
        entry = decoder.register("110", name="fix_ab")
        decoded = decoder.decode(parse_syndrome("110"))
        assert decoded.exact and decoded.distance == 0
        assert decoded.entry is entry

    def test_nearest_fallback_and_ties(self):
        decoder = SyndromeDecoder(3)
        first = decoder.register(0b001, name="first")
        decoder.register(0b100, name="second")
        # 0b011 is distance 1 from first, distance 3 from second
        decoded = decoder.decode(0b011)
        assert not decoded.exact
        assert decoded.entry is first and decoded.distance == 1
        # 0b010 is distance 2 from both: earliest registration wins
        tied = decoder.decode(0b010)
        assert tied.entry is first and tied.distance == 2

    def test_max_distance_refuses_distant_guesses(self):
        decoder = SyndromeDecoder(4)
        decoder.register(0b0001)
        assert decoder.decode(0b1110, max_distance=2) is None
        assert decoder.decode(0b0011, max_distance=2) is not None

    def test_decode_equals_linear_search_reference(self):
        def reference(entries, syndrome, max_distance):
            # exact hit or first entry at the least distance, by brute force
            if syndrome == 0 or not entries:
                return None
            best = min(entries, key=lambda e: distance(syndrome, e.syndrome))
            d = distance(syndrome, best.syndrome)
            if max_distance is not None and d > max_distance:
                return None
            return best, d == 0, d

        decoder = SyndromeDecoder(5)
        for pattern in (0b00011, 0b11000, 0b00100, 0b10110):
            decoder.register(pattern)
        entries = decoder.entries
        # some syndromes sit at the least distance from two patterns
        assert any(
            d[0] == d[1] for d in (
                sorted(distance(s, e.syndrome) for e in entries)
                for s in range(1, 32)
            )
        )
        # the first sweep fills the memo, the later ones read it back
        for max_distance in (1, None, 0, 2, None):
            for syndrome in range(32):
                decoded = decoder.decode(syndrome, max_distance=max_distance)
                got = None if decoded is None else (
                    decoded.entry, decoded.exact, decoded.distance
                )
                assert got == reference(entries, syndrome, max_distance), (
                    syndrome, max_distance
                )

    def test_register_after_decode_changes_the_answer(self):
        decoder = SyndromeDecoder(3)
        first = decoder.register(0b001, name="first")
        assert decoder.decode(0b110).entry is first
        assert decoder.decode(0b011).distance == 1
        second = decoder.register(0b100, name="second")
        nearer = decoder.decode(0b110)
        assert nearer.entry is second and nearer.distance == 1
        third = decoder.register(0b011, name="third")
        exact = decoder.decode(0b011)
        assert exact.entry is third and exact.exact

    def test_max_distance_applies_on_every_call(self):
        decoder = SyndromeDecoder(4)
        entry = decoder.register(0b0001)
        assert decoder.decode(0b0011, max_distance=0) is None
        nearest = decoder.decode(0b0011)
        assert nearest.entry is entry and nearest.distance == 1
        assert decoder.decode(0b0011, max_distance=0) is None
        assert decoder.decode(0b0011, max_distance=1) == nearest

    def test_zero_syndrome_never_decodes(self):
        decoder = SyndromeDecoder(2)
        decoder.register(0b01)
        assert decoder.decode(0) is None

    def test_empty_decoder(self):
        assert SyndromeDecoder(2).decode(0b01) is None

    def test_registration_errors(self):
        decoder = SyndromeDecoder(2)
        with pytest.raises(ValueError, match="healthy"):
            decoder.register(0)
        with pytest.raises(ValueError, match="width"):
            decoder.register(0b100)
        decoder.register(0b01, name="one")
        with pytest.raises(ValueError, match="already"):
            decoder.register(0b01, name="other")

    def test_register_for_by_detector_name(self):
        bank = toy_bank()
        decoder = SyndromeDecoder.for_bank(bank)
        entry = decoder.register_for(bank, ["x_hi", "skew"], name="fix_x")
        assert entry.syndrome == 0b101
        with pytest.raises(KeyError):
            decoder.register_for(bank, ["missing"])

    def test_corrector_callback_is_kept(self):
        calls = []
        decoder = SyndromeDecoder(1)
        decoder.register(0b1, corrector=lambda *a: calls.append(a))
        decoded = decoder.decode(0b1)
        decoded.entry.corrector("rt", decoded, 1.0)
        assert calls == [("rt", decoded, 1.0)]

    def test_format_table(self):
        decoder = SyndromeDecoder(2)
        decoder.register(0b10, name="fix_b")
        text = decoder.format_table()
        assert "01 -> fix_b" in text
