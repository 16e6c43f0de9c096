"""Detector banks: witness predicates compiled to bit-packed rows.

The paper's Section 3 detectors are predicates — a witness ``Z``
refining a detection predicate ``X`` — and the library checks them one
at a time inside exhaustive exploration.  The QEC formalization in
SNIPPETS.md (Def 8 *Detectors*, Def 9 *Syndrome*) shows the
production-grade shape of the same idea: a *bank* of m detectors is a
parity-check structure, and a state's violation pattern is a syndrome
vector in Z2^m.

:class:`DetectorBank` compiles a list of predicates over one program
schema into that shape, reusing the two fast protocols the core already
provides:

- per state, every detector is compiled through
  :meth:`Predicate.compile_for` (the ``values_builder`` raw-tuple sweep
  protocol), so a whole-bank evaluation is m calls on one values tuple
  with no ``State`` construction;
- per :class:`~repro.core.regions.StateIndex`, each detector becomes a
  bit-packed *row* via the index's memoized ``region_bits`` sweep, so
  evaluating the bank against a whole :class:`Region` of states — fire
  counts, fired unions, coverage — is a handful of big-int AND/OR/
  popcount operations.

Detectors carry an optional *read frame* (the variables the predicate
depends on, mirroring :mod:`repro.analysis.frames` action
declarations).  The online runtime uses the frames to re-evaluate only
the detectors whose reads intersect an event's written variables;
:meth:`DetectorBank.with_inferred_reads` derives missing frames by the
same differential probing the frame linter uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.predicate import Predicate, TRUE
from ..core.regions import Region, StateIndex, universe_index
from ..core.state import Schema, State, Variable, state_space
from .syndrome import fired_names, format_syndrome

__all__ = ["BankDetector", "DetectorBank", "BankCoverage"]


@dataclass(frozen=True)
class BankDetector:
    """One row of a bank: a named predicate with an optional read frame.

    ``reads=None`` means "unknown" — sound but slow online (the
    detector is re-evaluated on every event).  A declared frame must
    cover every variable the predicate consults; a too-small frame
    silently corrupts incremental syndromes, which is why
    :meth:`DetectorBank.with_inferred_reads` exists.
    """

    name: str
    predicate: Predicate
    reads: Optional[FrozenSet[str]] = None


@dataclass(frozen=True)
class BankCoverage:
    """Which detectors fire where, against a fault class (see
    :meth:`DetectorBank.coverage`)."""

    bank: str
    span_states: int
    unsafe_states: int          #: size of the fault-unsafe region ``ms``
    covered_unsafe: int         #: unsafe states where ≥1 detector fires
    fire_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of the fault-unsafe region some detector covers
        (1.0 when the region is empty — nothing to detect)."""
        if self.unsafe_states == 0:
            return 1.0
        return self.covered_unsafe / self.unsafe_states

    def format(self) -> str:
        lines = [
            f"== bank {self.bank}: "
            f"{self.covered_unsafe}/{self.unsafe_states} unsafe states "
            f"covered ({self.coverage:.0%}), span {self.span_states} states"
        ]
        for name, fires in self.fire_counts.items():
            lines.append(f"   {name:32s} fires on {fires} span states")
        return "\n".join(lines)


#: what the constructor accepts per detector
DetectorLike = Union[BankDetector, Predicate, Tuple[str, Predicate]]


class DetectorBank:
    """m detectors over one program schema, compiled two ways.

    Parameters
    ----------
    detectors:
        :class:`BankDetector` items, bare predicates, or
        ``(name, predicate)`` pairs.  Names must be unique — they are
        the syndrome's coordinate labels.
    variables:
        The program variables the detectors read; they fix the schema
        (and hence the values-tuple order) every evaluation uses.
    """

    def __init__(
        self,
        detectors: Iterable[DetectorLike],
        variables: Sequence[Variable],
        name: str = "bank",
    ):
        self.name = name
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.schema: Schema = Schema.of(v.name for v in self.variables)
        normalized: List[BankDetector] = []
        for item in detectors:
            if isinstance(item, BankDetector):
                detector = item
            elif isinstance(item, Predicate):
                detector = BankDetector(name=item.name, predicate=item)
            else:
                label, predicate = item
                detector = BankDetector(name=label, predicate=predicate)
            if detector.reads is not None:
                unknown = detector.reads - set(self.schema.names)
                if unknown:
                    raise ValueError(
                        f"detector {detector.name!r} reads unknown "
                        f"variable(s) {sorted(unknown)}"
                    )
            normalized.append(detector)
        names = [d.name for d in normalized]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate detector names: {names}")
        self.detectors: Tuple[BankDetector, ...] = tuple(normalized)
        self.m = len(self.detectors)
        self.full_mask = (1 << self.m) - 1
        self.detector_names: Tuple[str, ...] = tuple(names)
        #: compiled values-tuple evaluators, one per detector
        self._fns: Tuple[Callable, ...] = tuple(
            d.predicate.compile_for(self.schema) for d in self.detectors
        )
        #: variable name -> bitmask of the detectors that read it
        #: (an undeclared frame subscribes the detector to every variable)
        self._var_masks: Dict[str, int] = {n: 0 for n in self.schema.names}
        for j, detector in enumerate(self.detectors):
            bit = 1 << j
            reads = (
                detector.reads if detector.reads is not None
                else self.schema.names
            )
            for variable in reads:
                self._var_masks[variable] |= bit
        #: dirty mask -> its ``(bit, evaluator)`` pairs, built on first use
        #: (the evaluators are fixed, so a plan never goes stale)
        self._plans: Dict[int, Tuple[Tuple[int, Callable], ...]] = {}

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_witnesses(
        cls, witnesses: Iterable, program, name: str = "witness-bank"
    ) -> "DetectorBank":
        """A bank of Theorem 3.4 witness predicates (``Z = g ∧ g'``).

        ``witnesses`` are :class:`repro.theory.detectors.DetectorWitness`
        items (see :func:`repro.theory.detectors.witnesses_for`);
        ``program`` is the refined program that embeds them.  Each
        witness's read frame comes from the embedded action's declared
        ``reads`` — the guard of ``ac'`` is exactly what ``Z`` evaluates
        — falling back to "unknown" when the action declares no frame.
        """
        detectors: List[BankDetector] = []
        for witness in witnesses:
            reads: Optional[FrozenSet[str]] = None
            try:
                action = program.action(witness.embedded_action)
            except KeyError:
                action = None
            if action is not None and action.reads is not None:
                reads = frozenset(action.reads)
            detectors.append(BankDetector(
                name=f"Z({witness.embedded_action})",
                predicate=witness.witness,
                reads=reads,
            ))
        return cls(detectors, program.variables, name=name)

    def with_inferred_reads(
        self, states: Optional[Iterable[State]] = None
    ) -> "DetectorBank":
        """A copy of the bank with missing read frames filled in by
        differential probing (:func:`repro.analysis.frames.infer_predicate_reads`).

        ``states`` defaults to the full Cartesian space of the bank's
        variables, which makes the inference exact; pass a sample to
        trade soundness for speed on large spaces.
        """
        from ..analysis.frames import infer_predicate_reads

        if any(d.reads is None for d in self.detectors):
            probe = list(
                states if states is not None else state_space(self.variables)
            )
            detectors = [
                d if d.reads is not None else replace(
                    d,
                    reads=infer_predicate_reads(
                        d.predicate, self.variables, probe, alt_limit=0
                    ),
                )
                for d in self.detectors
            ]
        else:
            detectors = list(self.detectors)
        return DetectorBank(detectors, self.variables, name=self.name)

    # -- per-state evaluation (values-tuple protocol) ---------------------
    def syndrome_of_values(self, values: Sequence) -> int:
        """Full-bank syndrome of one values sequence in schema order."""
        bits = 0
        for j, fn in enumerate(self._fns):
            if fn(values):
                bits |= 1 << j
        return bits

    def syndrome(self, state: State) -> int:
        """Full-bank syndrome of a :class:`State` (projected onto the
        bank's variables when the state carries more)."""
        if state.schema is not self.schema:
            state = state.project(self.schema.names)
        return self.syndrome_of_values(state.values_tuple)

    def dirty_mask(self, written: Iterable[str]) -> int:
        """Bitmask of the detectors whose read frames intersect
        ``written`` (unknown variables contribute nothing)."""
        masks = self._var_masks
        dirty = 0
        for name in written:
            dirty |= masks.get(name, 0)
        return dirty

    def update_syndrome(
        self, syndrome: int, values: Sequence, dirty: int
    ) -> int:
        """Incremental re-evaluation: recompute only the ``dirty``
        detectors against ``values``, keeping every other bit."""
        plan = self._plans.get(dirty)
        if plan is None:
            plan = self._plans[dirty] = tuple(
                (1 << j, fn) for j, fn in enumerate(self._fns)
                if dirty >> j & 1
            )
        bits = 0
        for bit, fn in plan:
            if fn(values):
                bits |= bit
        return (syndrome & ~dirty) | bits

    # -- region evaluation (big-int rows) ---------------------------------
    def rows(self, index: StateIndex) -> Tuple[int, ...]:
        """The bank as bit-packed rows over ``index``: bit ``i`` of row
        ``j`` is set iff detector ``j`` fires at state ``i``.  Each row
        is the index's memoized ``region_bits`` sweep, so repeated bank
        evaluations over one index cost dictionary hits."""
        return tuple(
            index.region_bits(d.predicate) for d in self.detectors
        )

    def fired_region(self, index: StateIndex, detector: str) -> Region:
        """The states of ``index`` where the named detector fires."""
        for d in self.detectors:
            if d.name == detector:
                return index.region(d.predicate)
        raise KeyError(detector)

    def fired_union(self, index: StateIndex) -> Region:
        """States where at least one detector fires (nonzero syndrome)."""
        union = 0
        for row in self.rows(index):
            union |= row
        return Region(index, union)

    def syndrome_table(
        self, index: StateIndex, region: Optional[Region] = None
    ) -> List[Tuple[int, int]]:
        """``(state id, syndrome)`` for every state of ``region``
        (default: the whole index), read off the packed rows — one byte
        probe per (state, detector) pair, no predicate re-evaluation."""
        data = [
            row.to_bytes((index.n + 7) >> 3, "little")
            for row in self.rows(index)
        ]
        ids = (
            range(index.n) if region is None else region.ids()
        )
        table: List[Tuple[int, int]] = []
        for i in ids:
            k, b = i >> 3, 1 << (i & 7)
            syndrome = 0
            for j, row_data in enumerate(data):
                if row_data[k] & b:
                    syndrome |= 1 << j
            table.append((i, syndrome))
        return table

    def fire_counts(
        self, index: StateIndex, region: Optional[Region] = None
    ) -> Dict[str, int]:
        """Per-detector fire counts over ``region`` (default: all of
        ``index``) — one AND + popcount per detector."""
        bits = index.full_bits if region is None else region.bits
        return {
            d.name: (row & bits).bit_count()
            for d, row in zip(self.detectors, self.rows(index))
        }

    # -- bank-level report -------------------------------------------------
    def coverage(
        self, program, faults, spec, span: Predicate = TRUE
    ) -> BankCoverage:
        """How the bank relates to a fault class: which detectors fire
        on the fault span, and what fraction of the fault-unsafe region
        ``ms`` (:func:`repro.synthesis.weakest.fault_unsafe_region` —
        the states from which faults alone can violate safety) carries
        a nonzero syndrome.  Uncovered unsafe states are blind spots: a
        fault can put the system there without any detector firing."""
        from ..synthesis.weakest import fault_unsafe_region

        index = universe_index(program)
        if index is None:
            index = StateIndex(program.states())
        span_bits = index.region_bits(span)
        unsafe_bits = index.region_of(
            fault_unsafe_region(faults, spec, index.states)
        ).bits
        rows = self.rows(index)
        union = 0
        for row in rows:
            union |= row
        return BankCoverage(
            bank=self.name,
            span_states=span_bits.bit_count(),
            unsafe_states=unsafe_bits.bit_count(),
            covered_unsafe=(union & unsafe_bits).bit_count(),
            fire_counts={
                d.name: (row & span_bits).bit_count()
                for d, row in zip(self.detectors, rows)
            },
        )

    # -- rendering ---------------------------------------------------------
    def describe(self, syndrome: int) -> str:
        """``"0110 [d1, d2]"`` — the packed vector plus the fired names."""
        names = fired_names(syndrome, self.detector_names)
        return f"{format_syndrome(syndrome, self.m)} {names}"

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:
        return (
            f"DetectorBank({self.name!r}, m={self.m}, "
            f"{len(self.schema.names)} variables)"
        )
