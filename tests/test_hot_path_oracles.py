"""Oracle tests for the memoised and inlined structures on the walk.

Each hot-path structure below caches or inlines work that a plainer
formulation recomputes every time. These property tests drive both with
small capacities, so evictions and wrap-arounds are frequent, and
require identical answers after every step.
"""

from collections import OrderedDict
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addresses import DEFAULT_ADDRESS_MAP
from repro.common.config import CacheConfig, STeMSConfig, SystemConfig
from repro.memsys.cache import Cache
from repro.memsys.hierarchy import AccessOutcome, Hierarchy, ServiceLevel
from repro.prefetch.sms.generations import (
    ActiveGenerationTable,
    SequenceElement,
)
from repro.prefetch.stems.pst import PatternSequenceTable, SequenceStep
from repro.prefetch.stems.reconstruction import (
    ReconstructionResult,
    Reconstructor,
)
from repro.prefetch.tms.cmob import CircularMissBuffer, MissEntry
from repro.sim import timing
from repro.sim.results import (
    SERVICE_L1,
    SERVICE_L2,
    SERVICE_MEMORY,
    SERVICE_PREFETCHED_L1,
    SERVICE_SVB,
)
from repro.trace.events import MemoryAccess

AMAP = DEFAULT_ADDRESS_MAP


# -- PST: memoised predict / predict_offsets ----------------------------------


def fresh_prediction(pst, index):
    """``predict``/``predict_offsets`` recomputed from the stored entry."""
    entry = pst._table.peek(index)
    if entry is None:
        return [], set()
    threshold = pst.config.predict_threshold
    chosen = sorted(
        (state.position, offset, state.delta)
        for offset, state in entry.items()
        if state.counter >= threshold
    )
    return (
        [SequenceStep(offset=o, delta=d) for _, o, d in chosen],
        {o for _, o, _ in chosen},
    )


pst_op = st.one_of(
    st.tuples(
        st.just("train"),
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(0, 33), st.integers(0, 3)),
                 max_size=6),
    ),
    st.tuples(st.just("predict"), st.integers(0, 3), st.just(None)),
    st.tuples(st.just("offsets"), st.integers(0, 3), st.just(None)),
)


@settings(deadline=None, max_examples=200)
@given(ops=st.lists(pst_op, max_size=60), entries=st.integers(1, 3))
def test_pst_predictions_equal_fresh_recomputation(ops, entries):
    pst = PatternSequenceTable(STeMSConfig(pst_entries=entries), 32)
    for op, key, pairs in ops:
        index = (key % 2, key)
        if op == "train":
            pst.train(index, [
                SequenceElement(offset=o, delta=d, offchip=True)
                for o, d in pairs
            ])
        steps, offsets = fresh_prediction(pst, index)
        if op == "predict":
            assert pst.predict(index) == steps
        elif op == "offsets":
            assert pst.predict_offsets(index) == offsets
        # every resident index, memoised or not, still agrees
        for resident, _ in list(pst._table.items()):
            steps, offsets = fresh_prediction(pst, resident)
            assert pst._steps.get(resident, steps) == steps
            assert pst._offsets.get(resident, offsets) == offsets
        assert set(pst._steps) <= set(pst._table)
        assert set(pst._offsets) <= set(pst._table)


# -- Reconstructor: inline placement into free slots --------------------------


def reconstruct_by_place(recon, entries, include_first):
    """Reconstruction with every placement through ``_place``."""
    result = ReconstructionResult()
    slots = [None] * recon.buffer_size
    occupied = []
    anchors = []
    cursor = -1
    for i, entry in enumerate(entries):
        cursor = cursor + entry.delta + 1 if i else 0
        anchors.append(recon._place(slots, cursor, entry.block, result,
                                    occupied))
    for entry, anchor in zip(entries, anchors):
        if anchor is None:
            continue
        region = AMAP.region_of_block(entry.block)
        index = (entry.pc, AMAP.offset_in_region(entry.block))
        sequence = recon.pst.predict(index)
        if not sequence:
            continue
        result.regions[region] = index
        position = anchor
        for step in sequence:
            position += step.delta + 1
            if position >= recon.buffer_size:
                result.dropped += 1
                continue
            recon._place(slots, position,
                         AMAP.block_in_region(region, step.offset), result,
                         occupied)
    skip = entries[0].block if entries and not include_first else None
    seen = set()
    for block in slots:
        if block is None or block in seen:
            continue
        seen.add(block)
        if block == skip:
            skip = None
            continue
        result.blocks.append(block)
    return result


@settings(deadline=None, max_examples=100)
@given(
    trainings=st.lists(
        st.lists(st.tuples(st.integers(0, 31), st.integers(0, 4)),
                 max_size=8),
        min_size=4, max_size=4,
    ),
    entries=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 6)),
        max_size=24,
    ),
    buffer_size=st.integers(1, 32),
    include_first=st.booleans(),
)
def test_reconstruction_equals_place_only_reference(
    trainings, entries, buffer_size, include_first
):
    pst = PatternSequenceTable(STeMSConfig(), 32)
    for pc, pairs in enumerate(trainings):
        for _ in range(2):  # a second sighting keeps joined blocks
            pst.train((pc, 0), [
                SequenceElement(offset=o, delta=d, offchip=True)
                for o, d in pairs
            ])
    misses = [
        MissEntry(block=AMAP.block_in_region(region, 0), pc=pc, delta=delta)
        for region, pc, delta in entries
    ]
    recon = Reconstructor(pst, AMAP, buffer_size=buffer_size)
    assert recon.reconstruct(misses, include_first) == reconstruct_by_place(
        recon, misses, include_first
    )


# -- CMOB: read_from -----------------------------------------------------------


def read_by_get(cmob, pos, count):
    """The per-entry ``get`` loop ``read_from`` replaces."""
    out = []
    for p in range(pos, min(pos + count, cmob.head)):
        entry = cmob.get(p)
        if entry is None:
            break
        out.append(entry)
    return out


@settings(deadline=None, max_examples=100)
@given(
    blocks=st.lists(st.integers(0, 9), max_size=40),
    capacity=st.integers(1, 6),
)
def test_cmob_read_from_equals_get_loop(blocks, capacity):
    cmob = CircularMissBuffer(capacity)
    for i, block in enumerate(blocks):
        cmob.append(block, pc=i, delta=i % 3)
        # every start, resident or overwritten, and every window length
        for pos in range(-2, cmob.head + 2):
            for count in range(capacity + 2):
                assert cmob.read_from(pos, count) == read_by_get(
                    cmob, pos, count
                )


# -- hierarchy: inline L1 probe and fill ---------------------------------------


class ReferenceHierarchy:
    """``Hierarchy.access`` spelled with the Cache methods it inlines."""

    def __init__(self, config):
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)

    def access(self, block):
        hit, prefetch_hit = self.l1.demand_lookup(block)
        if hit:
            return AccessOutcome(ServiceLevel.L1, prefetch_hit=prefetch_hit)
        level = ServiceLevel.L2 if self.l2.probe_fill(block) else (
            ServiceLevel.MEMORY
        )
        fill = self.l1.fill(block)
        evicted = fill.evicted_block
        return AccessOutcome(
            level,
            l1_evictions=() if evicted is None else (evicted,),
            l1_unused_prefetch_evicted=fill.evicted_unused_prefetch,
        )

    def install_prefetch(self, block):
        self.l2.fill(block)
        self.l1.fill(block, prefetched=True)


def cache_state(cache):
    """Per-set (block, prefetched) pairs in recency order."""
    return [list(ways.items()) for ways in cache._sets]


SMALL_SYSTEM = SystemConfig(
    l1=CacheConfig(size_bytes=4 * 64, associativity=2),
    l2=CacheConfig(size_bytes=8 * 64, associativity=2),
)


@settings(deadline=None, max_examples=100)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["access", "access", "prefetch"]),
              st.integers(0, 23)),
    max_size=80,
))
def test_hierarchy_access_matches_cache_methods(ops):
    hierarchy = Hierarchy(SMALL_SYSTEM)
    reference = ReferenceHierarchy(SMALL_SYSTEM)
    for op, block in ops:
        if op == "prefetch":
            hierarchy.install_prefetch(block)
            reference.install_prefetch(block)
        else:
            assert hierarchy.access(block) == reference.access(block)
        assert cache_state(hierarchy.l1) == cache_state(reference.l1)
        assert cache_state(hierarchy.l2) == cache_state(reference.l2)


# -- AGT: one shared non-trigger result per generation -------------------------


class ReferenceAGT:
    """Active regions as an LRU of region -> touched offsets."""

    def __init__(self, entries):
        self.entries = entries
        self.active = OrderedDict()  # region -> touched offsets
        self.ended = []

    def observe(self, block):
        region = AMAP.region_of_block(block)
        offset = AMAP.offset_in_region(block)
        touched = self.active.get(region)
        if touched is None:
            if len(self.active) >= self.entries:
                self.ended.append(self.active.popitem(last=False)[0])
            self.active[region] = {offset}
            return True
        self.active.move_to_end(region)
        touched.add(offset)
        return False

    def evict(self, block):
        region = AMAP.region_of_block(block)
        touched = self.active.get(region)
        if touched is not None and AMAP.offset_in_region(block) in touched:
            del self.active[region]
            self.ended.append(region)


@settings(deadline=None, max_examples=100)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["observe", "observe", "evict"]),
                  st.integers(0, 3), st.integers(0, 3)),
        max_size=80,
    ),
    entries=st.integers(1, 3),
)
def test_agt_observe_across_generation_end_and_restart(ops, entries):
    ended = []
    agt = ActiveGenerationTable(
        entries, AMAP, on_generation_end=lambda r: ended.append(r.region)
    )
    reference = ReferenceAGT(entries)
    for op, region, offset in ops:
        block = AMAP.block_in_region(region, offset)
        if op == "evict":
            agt.on_l1_eviction(block)
            reference.evict(block)
        else:
            before = agt.get(region)
            result = agt.observe(0x40 + offset, block, offchip=True)
            assert result.is_trigger is reference.observe(block)
            record = result.record
            assert record is agt.get(region)
            assert record.region == region
            if result.is_trigger:
                # a restart gets a fresh record, triggered by this access
                assert record is not before
                assert (record.trigger_pc, record.trigger_offset) == (
                    0x40 + offset, offset
                )
            else:
                assert record is before
                # every later access of the generation shares one result
                assert agt.observe(0x40, block, offchip=False) is result
            assert record.touched == reference.active[region]
        assert ended == reference.ended


# -- TimingModel: completion times swept every PRUNE_INTERVAL accesses ---------


def run_timing(accesses, measure_from):
    model = timing.TimingModel(measure_from=measure_from)
    for access, klass in accesses:
        model.update(access, klass)
    return model.finalize()


@settings(deadline=None, max_examples=100)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from([SERVICE_L1, SERVICE_L2, SERVICE_MEMORY,
                             SERVICE_MEMORY, SERVICE_SVB,
                             SERVICE_PREFETCHED_L1]),
            st.integers(0, 12),  # instr_gap
            st.integers(0, 40),  # dependence distance (0: none)
        ),
        max_size=300,
    ),
    measure_from=st.integers(0, 20),
)
def test_timing_sweep_interval_changes_nothing(steps, measure_from):
    """Sweeping passed completions every access (the eager pruning the
    interval replaces) and every PRUNE_INTERVAL accesses agree exactly."""
    accesses = [
        (MemoryAccess(index=i, pc=0, address=64 * i, instr_gap=gap,
                      depends_on=i - back if 0 < back <= i else None),
         klass)
        for i, (klass, gap, back) in enumerate(steps)
    ]
    measure_from = min(measure_from, len(accesses))
    swept_late = run_timing(accesses, measure_from)
    for interval in (1, 7):
        with mock.patch.object(timing, "PRUNE_INTERVAL", interval):
            assert run_timing(accesses, measure_from) == swept_late
