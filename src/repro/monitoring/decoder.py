"""Syndrome decoding: from violation patterns to registered correctors.

The paper composes every fault-tolerant program from detectors *and*
correctors; a bank's syndrome tells us *that* something is wrong and
which witnesses say so, but recovery needs the step the QEC
formalization calls decoding — choosing the corrector whose target
failure mode best explains the observed pattern.

:class:`SyndromeDecoder` is that map.  Correctors are registered
against the syndrome they are designed for (the pattern their failure
mode provokes); decoding is an exact table hit when the observed
syndrome was registered, and otherwise falls back to the
nearest-syndrome rule: minimum Hamming distance, ties broken by
registration order.  The fallback is what makes a bank degrade
gracefully under fault combinations nobody enumerated — a syndrome one
bit-flip away from a registered pattern still routes to that pattern's
corrector (and the returned :class:`Decoded` says how far the match
was, so callers can refuse distant guesses with ``max_distance``).

Each nonzero syndrome is searched once: its verdict is memoized (one
entry per distinct syndrome decoded, cleared by every registration), so
a stream that keeps revisiting the same patterns pays a dictionary
probe per decode.  ``max_distance`` is a per-call filter over the
memoized verdict, never part of it.

The zero syndrome is healthy by definition and never decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from .syndrome import distance, format_syndrome, parse_syndrome

__all__ = ["CorrectorEntry", "Decoded", "SyndromeDecoder"]


@dataclass(frozen=True)
class CorrectorEntry:
    """One registered corrector: the syndrome it answers for, a label,
    and an optional callback the runtime invokes when the decoder
    selects it (signature ``callback(runtime, decoded, time)``)."""

    syndrome: int
    name: str
    corrector: Optional[Callable] = None


@dataclass(frozen=True)
class Decoded:
    """A decoding verdict: the selected entry, whether the match was an
    exact table hit, and the Hamming distance to the observed pattern
    (0 iff exact)."""

    entry: CorrectorEntry
    exact: bool
    distance: int


class SyndromeDecoder:
    """Exact-match table plus nearest-syndrome fallback over m detectors.

    ``m`` fixes the vector length (used for rendering and validation);
    build one with :meth:`for_bank` to inherit it from a
    :class:`~repro.monitoring.banks.DetectorBank`.
    """

    def __init__(self, m: int):
        self.m = m
        self._entries: List[CorrectorEntry] = []
        self._exact: Dict[int, CorrectorEntry] = {}
        #: syndrome -> its verdict (exact or nearest), filled by decode
        self._memo: Dict[int, Decoded] = {}

    @classmethod
    def for_bank(cls, bank) -> "SyndromeDecoder":
        return cls(bank.m)

    def register(
        self,
        syndrome: Union[int, str],
        corrector: Optional[Callable] = None,
        name: Optional[str] = None,
    ) -> CorrectorEntry:
        """Register a corrector for ``syndrome`` (a packed int or a
        ``"0110"`` bit string, detector 0 leftmost).  The first
        registration for a pattern wins the exact slot; re-registering
        the same pattern raises, because two correctors answering one
        syndrome is an interference bug, not a fallback situation."""
        if isinstance(syndrome, str):
            syndrome = parse_syndrome(syndrome)
        if syndrome == 0:
            raise ValueError("the zero syndrome is healthy; nothing to correct")
        if syndrome >> self.m:
            raise ValueError(
                f"syndrome {bin(syndrome)} exceeds bank width m={self.m}"
            )
        if syndrome in self._exact:
            raise ValueError(
                f"syndrome {format_syndrome(syndrome, self.m)} already has "
                f"corrector {self._exact[syndrome].name!r}"
            )
        entry = CorrectorEntry(
            syndrome=syndrome,
            name=name or f"corrector@{format_syndrome(syndrome, self.m)}",
            corrector=corrector,
        )
        self._entries.append(entry)
        self._exact[syndrome] = entry
        self._memo.clear()
        return entry

    def register_for(
        self,
        bank,
        detector_names: Iterable[str],
        corrector: Optional[Callable] = None,
        name: Optional[str] = None,
    ) -> CorrectorEntry:
        """Register against the pattern "exactly these detectors of
        ``bank`` fire", by name — the readable spelling of
        :meth:`register` when a bank is at hand."""
        positions = {d: j for j, d in enumerate(bank.detector_names)}
        bits = 0
        for detector in detector_names:
            if detector not in positions:
                raise KeyError(detector)
            bits |= 1 << positions[detector]
        return self.register(bits, corrector=corrector, name=name)

    @property
    def entries(self) -> Sequence[CorrectorEntry]:
        return tuple(self._entries)

    def decode(
        self, syndrome: int, max_distance: Optional[int] = None
    ) -> Optional[Decoded]:
        """The corrector for ``syndrome``: exact hit, else the nearest
        registered pattern (ties to earliest registration), else None
        when nothing is registered or the nearest match is farther than
        ``max_distance``.  The zero syndrome always decodes to None."""
        decoded = self._memo.get(syndrome)
        if decoded is None:
            if syndrome == 0:
                return None
            decoded = self._search(syndrome)
            if decoded is None:
                return None
            self._memo[syndrome] = decoded
        if max_distance is not None and decoded.distance > max_distance:
            return None
        return decoded

    def _search(self, syndrome: int) -> Optional[Decoded]:
        """Exact hit, else the nearest entry (ties to the earliest
        registration), else None when nothing is registered."""
        hit = self._exact.get(syndrome)
        if hit is not None:
            return Decoded(entry=hit, exact=True, distance=0)
        best: Optional[CorrectorEntry] = None
        best_distance = -1
        for entry in self._entries:
            d = distance(syndrome, entry.syndrome)
            if best is None or d < best_distance:
                best, best_distance = entry, d
        if best is None:
            return None
        return Decoded(entry=best, exact=False, distance=best_distance)

    def format_table(self) -> str:
        """The registration table, one line per corrector."""
        lines = [f"== decoder: {len(self._entries)} correctors over m={self.m}"]
        for entry in self._entries:
            lines.append(
                f"   {format_syndrome(entry.syndrome, self.m)} -> {entry.name}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"SyndromeDecoder(m={self.m}, {len(self._entries)} entries)"
