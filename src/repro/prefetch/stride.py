"""PC-indexed stride prefetcher — the Table 1 baseline.

A 32-entry table tracks, per load PC, the last block accessed and the last
observed stride; two consecutive identical strides confirm the pattern and
prefetch ``degree`` blocks ahead. The table additionally caps the number of
distinct strides it tracks (Table 1: "max 16 distinct strides").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.config import StrideConfig
from repro.common.lru import LRUTable
from repro.common.stats import StatGroup
from repro.prefetch.base import TARGET_L1, AccessEvent, Prefetcher


@dataclass
class _StrideEntry:
    last_block: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(Prefetcher):
    """Classic per-PC stride detector with confidence hysteresis."""

    install_target = TARGET_L1
    name = "stride"

    def __init__(self, config: StrideConfig = StrideConfig()) -> None:
        super().__init__()
        self.config = config
        self._table: LRUTable[int, _StrideEntry] = LRUTable(
            config.table_entries, on_evict=self._evict
        )
        #: stride -> number of table entries holding it (non-zero strides
        #: only); kept in step with every assign and eviction so the
        #: distinct-stride cap is one dict probe, not a table scan
        self._live: Dict[int, int] = {}
        self.stats = StatGroup("stride")

    def on_access(self, event: AccessEvent) -> None:
        pc, block = event.access.pc, event.block
        entry = self._table.get(pc)
        if entry is None:
            self._table.put(pc, _StrideEntry(last_block=block))
            return
        stride = block - entry.last_block
        entry.last_block = block
        if stride == 0:
            return
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 8)
        else:
            if not self._stride_allowed(stride):
                entry.confidence = 0
                return
            if entry.stride:
                self._release(entry.stride)
            live = self._live
            live[stride] = live.get(stride, 0) + 1
            entry.stride = stride
            entry.confidence = 1
        if entry.confidence >= self.config.confidence_threshold:
            self.stats.add("predictions")
            for step in range(1, self.config.degree + 1):
                target_block = block + entry.stride * step
                if target_block >= 0:
                    self._request(target_block, target=TARGET_L1)

    def _stride_allowed(self, stride: int) -> bool:
        """Enforce the distinct-stride cap across the table."""
        live = self._live
        return stride in live or len(live) < self.config.max_distinct_strides

    def _release(self, stride: int) -> None:
        """One entry stopped holding ``stride``."""
        live = self._live
        count = live[stride] - 1
        if count:
            live[stride] = count
        else:
            del live[stride]

    def _evict(self, pc: int, entry: _StrideEntry) -> None:
        if entry.stride:
            self._release(entry.stride)
