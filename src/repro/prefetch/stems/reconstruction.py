"""Reconstruction: interleaving temporal and spatial predictions (§4.2).

Given a window of RMOB entries, the reconstructor rebuilds the total
predicted miss order in a fixed-size slot buffer (256 entries):

1. the first entry's address is placed at slot 0;
2. each subsequent RMOB entry is placed ``delta + 1`` slots after the
   previous RMOB entry's slot;
3. every RMOB entry triggers a PST lookup with (entry PC, entry offset);
   each predicted spatial element is placed ``delta + 1`` slots after the
   previous element of that region's sequence (the trigger for the first);
4. a collision searches up to ``placement_window`` (2) slots forward then
   backward; unplaceable addresses are dropped (the paper reports 99%
   placed, 92% in their original slot).

The slot-ordered, de-duplicated block list is the stream's predicted
sequence. Figure 5's worked example is reproduced verbatim in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.addresses import AddressMap
from repro.prefetch.sms.generations import SpatialIndex
from repro.prefetch.stems.pst import PatternSequenceTable
from repro.prefetch.tms.cmob import MissEntry


@dataclass
class ReconstructionResult:
    """Outcome of one reconstruction episode."""

    #: predicted blocks in reconstructed (slot) order
    blocks: List[int] = field(default_factory=list)
    placed_original: int = 0
    placed_adjacent: int = 0
    dropped: int = 0
    #: regions whose spatial sequence was expanded: region -> index used
    regions: Dict[int, SpatialIndex] = field(default_factory=dict)


class Reconstructor:
    """Stateless reconstruction engine over a PST and an address map."""

    def __init__(
        self,
        pst: PatternSequenceTable,
        address_map: AddressMap,
        buffer_size: int = 256,
        placement_window: int = 2,
    ) -> None:
        self.pst = pst
        self.address_map = address_map
        self.buffer_size = buffer_size
        self.placement_window = placement_window

    def reconstruct(
        self,
        entries: Sequence[MissEntry],
        include_first: bool = True,
        on_region: Optional[Callable[[int, SpatialIndex], None]] = None,
    ) -> ReconstructionResult:
        """Rebuild the predicted total miss order for ``entries``.

        ``include_first=False`` omits the first entry's own block from the
        output (used when that block is the demand miss that started the
        stream — the processor already has it).
        """
        result = ReconstructionResult()
        size = self.buffer_size
        slots: List[Optional[int]] = [None] * size
        # slots filled so far, in placement order (phase 3 sorts them)
        occupied: List[int] = []
        place = self._place  # collisions and out-of-range positions only
        placed_original = dropped = 0

        # phase 1: temporal skeleton — place the RMOB entries themselves
        entry_slots: List[Optional[int]] = []
        cursor = -1
        for i, entry in enumerate(entries):
            cursor = cursor + entry.delta + 1 if i else 0
            if 0 <= cursor < size and slots[cursor] is None:
                slots[cursor] = entry.block
                occupied.append(cursor)
                placed_original += 1
                entry_slots.append(cursor)
            else:
                entry_slots.append(
                    place(slots, cursor, entry.block, result, occupied)
                )

        # phase 2: spatial expansion — interleave each entry's sequence
        amap = self.address_map
        predict = self.pst.predict
        block_in_region = amap.block_in_region
        region_shift = amap.region_block_bits
        offset_mask = amap.blocks_per_region - 1
        for entry, anchor in zip(entries, entry_slots):
            if anchor is None:
                continue
            region = entry.block >> region_shift
            index = (entry.pc, entry.block & offset_mask)
            sequence = predict(index)
            if not sequence:
                continue
            result.regions[region] = index
            if on_region is not None:
                on_region(region, index)
            position = anchor
            for step in sequence:
                position += step.delta + 1
                if not 0 <= position < size:
                    dropped += 1
                    continue
                block = block_in_region(region, step.offset)
                occupant = slots[position]
                if occupant is None:
                    slots[position] = block
                    occupied.append(position)
                    placed_original += 1
                elif occupant == block:
                    placed_original += 1
                else:
                    place(slots, position, block, result, occupied)
        result.placed_original += placed_original
        result.dropped += dropped

        # phase 3: emit in slot order, de-duplicated
        skip_block = entries[0].block if (entries and not include_first) else None
        seen = set()
        blocks = result.blocks
        occupied.sort()
        for position in occupied:
            block = slots[position]
            if block in seen:
                continue
            seen.add(block)
            if skip_block is not None and block == skip_block:
                skip_block = None  # only skip its first occurrence
                continue
            blocks.append(block)
        return result

    def _place(
        self,
        slots: List[Optional[int]],
        position: int,
        block: int,
        result: ReconstructionResult,
        occupied: List[int],
    ) -> Optional[int]:
        """Place ``block`` at ``position``, searching +/-window on conflict;
        a newly filled slot is recorded in ``occupied``."""
        if position < 0 or position >= self.buffer_size:
            result.dropped += 1
            return None
        if slots[position] is None:
            slots[position] = block
            occupied.append(position)
            result.placed_original += 1
            return position
        if slots[position] == block:
            result.placed_original += 1
            return position
        for offset in range(1, self.placement_window + 1):
            for candidate in (position + offset, position - offset):
                if 0 <= candidate < self.buffer_size and slots[candidate] is None:
                    slots[candidate] = block
                    occupied.append(candidate)
                    result.placed_adjacent += 1
                    return candidate
        result.dropped += 1
        return None
