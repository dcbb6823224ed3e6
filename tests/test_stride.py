"""Tests for the baseline stride prefetcher."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import StrideConfig
from repro.memsys.hierarchy import ServiceLevel
from repro.prefetch.base import AccessEvent
from repro.prefetch.stride import StridePrefetcher
from repro.trace.events import MemoryAccess


def feed(pf, pc, blocks):
    for i, block in enumerate(blocks):
        access = MemoryAccess(index=i, pc=pc, address=block * 64)
        pf.on_access(AccessEvent(access=access, block=block,
                                 level=ServiceLevel.MEMORY))
    return pf.pop_requests()


class TestStride:
    def test_detects_unit_stride(self):
        pf = StridePrefetcher(StrideConfig(degree=2))
        requests = feed(pf, 0x10, [100, 101, 102])
        blocks = [r.block for r in requests]
        assert 103 in blocks and 104 in blocks

    def test_detects_negative_stride(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        requests = feed(pf, 0x10, [100, 97, 94])
        assert [r.block for r in requests] == [91]

    def test_requires_confidence(self):
        pf = StridePrefetcher(StrideConfig(degree=1, confidence_threshold=2))
        assert feed(pf, 0x10, [100, 105]) == []  # one stride seen: no fetch

    def test_stride_change_resets(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        feed(pf, 0x10, [100, 101, 102])
        pf.pop_requests()
        # change stride: confidence resets, no prediction on first new stride
        access = MemoryAccess(index=9, pc=0x10, address=200 * 64)
        pf.on_access(AccessEvent(access=access, block=200,
                                 level=ServiceLevel.MEMORY))
        assert pf.pop_requests() == []

    def test_per_pc_isolation(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        for i, (pc, block) in enumerate(
            [(1, 10), (2, 500), (1, 11), (2, 510), (1, 12), (2, 520)]
        ):
            access = MemoryAccess(index=i, pc=pc, address=block * 64)
            pf.on_access(AccessEvent(access=access, block=block,
                                     level=ServiceLevel.MEMORY))
        blocks = {r.block for r in pf.pop_requests()}
        assert 13 in blocks and 530 in blocks

    def test_zero_stride_ignored(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        assert feed(pf, 0x10, [100, 100, 100, 100]) == []

    def test_table_capacity(self):
        pf = StridePrefetcher(StrideConfig(table_entries=2, degree=1))
        # train pc 1, then displace it with pcs 2 and 3
        feed(pf, 1, [10, 11])
        feed(pf, 2, [100])
        feed(pf, 3, [200])
        pf.pop_requests()
        # pc 1 entry evicted: next access re-allocates, no stride memory
        access = MemoryAccess(index=50, pc=1, address=12 * 64)
        pf.on_access(AccessEvent(access=access, block=12,
                                 level=ServiceLevel.MEMORY))
        assert pf.pop_requests() == []

    def test_install_target_is_l1(self):
        assert StridePrefetcher().install_target == "l1"


class TestDistinctStrideCap:
    """Table 1's "max 16 distinct strides", at a cap of two."""

    CONFIG = StrideConfig(max_distinct_strides=2, degree=1)

    def test_third_distinct_stride_is_refused(self):
        pf = StridePrefetcher(self.CONFIG)
        feed(pf, 1, [10, 11, 12])
        feed(pf, 2, [100, 102, 104])
        # stride 3 would be a third distinct stride: every sighting
        # resets pc 3's confidence and nothing is issued
        assert feed(pf, 3, [300, 303, 306, 309]) == []
        assert pf._table.peek(3).confidence == 0
        assert pf._table.peek(3).stride == 0

    def test_retargeted_entry_frees_its_stride(self):
        pf = StridePrefetcher(self.CONFIG)
        feed(pf, 1, [10, 11, 12])
        feed(pf, 2, [100, 102, 104])
        # pc 2, the only holder of stride 2, moves to stride 1
        feed(pf, 2, [105, 106])
        assert [r.block for r in feed(pf, 3, [300, 303, 306])] == [309]

    def test_evicted_entry_frees_its_stride(self):
        pf = StridePrefetcher(
            StrideConfig(table_entries=2, max_distinct_strides=2, degree=1)
        )
        feed(pf, 1, [10, 11, 12])
        feed(pf, 2, [100, 102, 104])
        # pc 3 displaces pc 1 (the LRU entry and only holder of stride 1)
        assert [r.block for r in feed(pf, 3, [300, 303, 306])] == [309]
        assert 1 not in pf._table


def table_strides(pf):
    """The old full-table scan, kept as the oracle of the live count."""
    return Counter(e.stride for _, e in pf._table.items() if e.stride)


@settings(deadline=None, max_examples=80)
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 40)), max_size=120
    ),
    entries=st.integers(1, 4),
    cap=st.integers(1, 3),
)
def test_live_strides_match_table_scan(accesses, entries, cap):
    pf = StridePrefetcher(
        StrideConfig(table_entries=entries, max_distinct_strides=cap)
    )
    for i, (pc, block) in enumerate(accesses):
        access = MemoryAccess(index=i, pc=pc, address=block * 64)
        pf.on_access(AccessEvent(access=access, block=block,
                                 level=ServiceLevel.MEMORY))
        assert pf._live == table_strides(pf)
        assert set(pf._live) == {
            e.stride for _, e in pf._table.items() if e.stride
        }
        assert len(pf._live) <= cap
