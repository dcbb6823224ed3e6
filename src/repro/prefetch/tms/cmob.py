"""Circular miss-order buffer (CMOB) with a most-recent-occurrence index.

TMS stores the global off-chip miss sequence in a large circular buffer in
main memory (~2 MB/processor) and maps each address to its most recent
position so that a new miss can locate where to start streaming (§2.2).
STeMS reuses the same structure for its RMOB, with (PC, delta) payload per
entry (§4.1).

Positions are *absolute* (monotonically increasing); an entry is readable
while it has not been overwritten, i.e. while ``position > head - capacity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class MissEntry:
    """One recorded miss. TMS ignores ``pc``/``delta``; STeMS uses both."""

    block: int
    pc: int = 0
    delta: int = 0


class CircularMissBuffer:
    """Fixed-capacity circular buffer of MissEntry with an address index."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: List[Optional[MissEntry]] = [None] * capacity
        self._index: Dict[int, int] = {}  # block -> most recent absolute pos
        self._head = 0  # absolute position of the next append
        self.appends = 0

    def __len__(self) -> int:
        return min(self._head, self.capacity)

    @property
    def head(self) -> int:
        return self._head

    def append(self, block: int, pc: int = 0, delta: int = 0) -> int:
        """Record a miss; returns its absolute position."""
        pos = self._head
        slot = pos % self.capacity
        overwritten = self._ring[slot]
        if overwritten is not None:
            # drop the index mapping only if it still points at this slot
            stale = self._index.get(overwritten.block)
            if stale is not None and stale % self.capacity == slot and stale != pos:
                del self._index[overwritten.block]
        self._ring[slot] = MissEntry(block=block, pc=pc, delta=delta)
        self._index[block] = pos
        self._head = pos + 1
        self.appends += 1
        return pos

    def find(self, block: int) -> Optional[int]:
        """Absolute position of the most recent occurrence of ``block``."""
        pos = self._index.get(block)
        if pos is None or not self._valid(pos):
            return None
        return pos

    def get(self, pos: int) -> Optional[MissEntry]:
        """Entry at absolute position ``pos`` if still resident."""
        if not self._valid(pos):
            return None
        return self._ring[pos % self.capacity]

    def read_from(self, pos: int, count: int) -> List[MissEntry]:
        """Up to ``count`` consecutive entries starting at ``pos``.

        Every position from a resident ``pos`` up to the head is resident
        too, so one validity check covers the whole run.
        """
        if not self._valid(pos):
            return []
        ring, capacity = self._ring, self.capacity
        end = min(pos + count, self._head)
        return [ring[p % capacity] for p in range(pos, end)]

    def _valid(self, pos: int) -> bool:
        return 0 <= pos < self._head and pos > self._head - self.capacity - 1
