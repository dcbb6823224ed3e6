"""Two-level cache hierarchy with off-chip miss classification.

The hierarchy is the substrate every prefetcher is evaluated on: it turns
the raw access stream into L1 hits, L2 hits and off-chip misses (the
prediction target of TMS/SMS/STeMS), and reports L1 evictions so spatial
generations can be terminated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import StatGroup
from repro.memsys.cache import Cache


class ServiceLevel(enum.Enum):
    """Where a demand access was serviced."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"
    SVB = "svb"  # assigned by the driver, never by the hierarchy itself


@dataclass(slots=True)
class AccessOutcome:
    """Result of one demand access through the hierarchy."""

    level: ServiceLevel
    #: blocks evicted from L1 by this access (0 or 1 entries)
    l1_evictions: Tuple[int, ...] = ()
    #: an L1-installed prefetch left the L1 without ever being referenced
    l1_unused_prefetch_evicted: bool = False
    #: first demand touch of an L1-installed prefetched block (covered miss)
    prefetch_hit: bool = False


#: preallocated L1-hit outcomes — one per access on the hot walk, and an
#: L1 hit never evicts; consumers treat outcomes as read-only
_L1_HIT = AccessOutcome(ServiceLevel.L1)
_L1_PREFETCH_HIT = AccessOutcome(ServiceLevel.L1, prefetch_hit=True)
_L2 = ServiceLevel.L2
_MEMORY = ServiceLevel.MEMORY


class Hierarchy:
    """Inclusive-of-nothing two-level hierarchy (L1d + unified L2).

    The model is non-inclusive/non-exclusive like most real hierarchies:
    fills go into both levels, and L1 evictions do not back-invalidate L2.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self.stats = StatGroup("hierarchy")
        # hot-loop bindings: ``access`` runs once per simulated access and
        # bumps two counters — increment the counter mapping directly
        # instead of paying a method call per bump; it also probes and
        # fills the L1 set in place (``Cache.demand_lookup`` + ``fill``
        # semantics) rather than through two calls and a ``CacheAccess``
        self._counters = self.stats._counters
        self._l1_sets = self.l1._sets
        self._l1_num_sets = self.l1._num_sets
        self._l1_assoc = self.l1._assoc

    def access(self, block: int) -> AccessOutcome:
        """Demand access to ``block``; fills on miss; classifies the level."""
        counters = self._counters
        counters["accesses"] += 1
        ways = self._l1_sets[block % self._l1_num_sets]
        if block in ways:
            counters["l1_hits"] += 1
            was_prefetched = ways[block]
            ways[block] = False  # demand reference: no longer a useless prefetch
            ways.move_to_end(block)
            return _L1_PREFETCH_HIT if was_prefetched else _L1_HIT

        if self.l2.probe_fill(block):
            counters["l2_hits"] += 1
            level = _L2
        else:
            counters["offchip_misses"] += 1
            level = _MEMORY

        # L1 fill of a block just found absent: evict the set's LRU way
        # when the set is full, then install as demand-referenced
        if len(ways) >= self._l1_assoc:
            evicted, evicted_unused = ways.popitem(last=False)
            ways[block] = False
            return AccessOutcome(level, (evicted,), evicted_unused)
        ways[block] = False
        return AccessOutcome(level)

    def fill_from_svb(self, block: int) -> AccessOutcome:
        """Move a consumed SVB block into the hierarchy (L1 + L2)."""
        self.l2.fill(block)
        fill = self.l1.fill(block)
        evicted = fill.evicted_block
        return AccessOutcome(
            ServiceLevel.SVB,
            l1_evictions=() if evicted is None else (evicted,),
            l1_unused_prefetch_evicted=fill.evicted_unused_prefetch,
        )

    def install_prefetch(self, block: int) -> AccessOutcome:
        """Install an L1-targeted prefetch (the standalone-SMS design).

        The fetched data passes through L2 as on a real fill; the
        prefetched flag lives in L1 only, so the unused-eviction
        overprediction accounting stays unambiguous.
        """
        self.l2.fill(block)
        fill = self.l1.fill(block, prefetched=True)
        evicted = fill.evicted_block
        return AccessOutcome(
            ServiceLevel.L1,
            l1_evictions=() if evicted is None else (evicted,),
            l1_unused_prefetch_evicted=fill.evicted_unused_prefetch,
        )

    def present(self, block: int) -> Optional[ServiceLevel]:
        """Which level currently holds ``block`` (no state change)."""
        if block in self.l1:
            return ServiceLevel.L1
        if block in self.l2:
            return ServiceLevel.L2
        return None
