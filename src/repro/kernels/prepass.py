"""Vectorized pre-pass: per-chunk classification inputs, computed once.

A per-access walk re-derives the same fields for every access —
block id (``address >> block_bits``), region id, read/write flag, stride
delta — inside per-access Python code. :class:`AccessChunk` computes
each of those fields for a whole chunk at once (numpy shifts over the
decoded address column when available, one C-speed comprehension
otherwise) and caches the result, so the driver's ``step`` and the
streaming analyses receive precomputed fields instead of re-deriving
them per access.

A chunk is *derived data only*: the :class:`~repro.trace.events.MemoryAccess`
objects inside it are exactly the ones a per-record replay produces, in
the same order, so pumping chunks through the same per-access
simulation code is bit-identical to stepping each access by
construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.telemetry import PHASE_PREPASS, phases_active
from repro.trace.events import MemoryAccess

#: records per chunk used by the generic batching wrapper (mirrors the
#: codec's on-disk chunk granularity, ``repro.tracestore.codec.CHUNK_RECORDS``)
DEFAULT_CHUNK_RECORDS = 4096


class AccessChunk:
    """One aligned run of consecutive trace records plus derived columns.

    Args:
        accesses: the decoded records, in trace order.
        start_index: trace index of ``accesses[0]``.
        addresses: optional numpy ``uint64`` column of the accesses'
            byte addresses (the codec's vector decode hands this over so
            derived fields come from numpy shifts instead of per-object
            attribute walks).

    Derived columns are computed lazily and cached per geometry: a
    fan-out group whose consumers share one address map computes each
    column exactly once per chunk.
    """

    __slots__ = (
        "accesses",
        "start_index",
        "_addresses",
        "_blocks_bits",
        "_blocks",
        "_regions_bits",
        "_regions",
        "_read_mask",
        "_deltas_bits",
        "_deltas",
    )

    def __init__(
        self,
        accesses: List[MemoryAccess],
        start_index: int = 0,
        addresses=None,
    ) -> None:
        self.accesses = accesses
        self.start_index = start_index
        self._addresses = addresses
        self._blocks_bits: Optional[int] = None
        self._blocks: Optional[List[int]] = None
        self._regions_bits: Optional[int] = None
        self._regions: Optional[List[int]] = None
        self._read_mask: Optional[List[bool]] = None
        self._deltas_bits: Optional[int] = None
        self._deltas: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    # -- derived columns ---------------------------------------------------

    def _shifted(self, bits: int) -> List[int]:
        """``address >> bits`` for the whole chunk, as Python ints.

        Computes one derived column — the unit the ``prepass`` phase
        timer accounts (one timer call per column per chunk; note the
        pre-pass runs *inside* a chunk's walk step, so its time also
        appears under ``walk_step``).
        """
        timer = phases_active()
        if timer is None:
            return self._shifted_column(bits)
        start = perf_counter()
        column = self._shifted_column(bits)
        timer.add(PHASE_PREPASS, perf_counter() - start)
        return column

    def _shifted_column(self, bits: int) -> List[int]:
        addresses = self._addresses
        if addresses is not None:
            import numpy

            return (addresses >> numpy.uint64(bits)).tolist()
        return [access.address >> bits for access in self.accesses]

    def blocks_for(self, block_bits: int) -> List[int]:
        """Block ids under a geometry with ``block_bits`` offset bits."""
        if self._blocks_bits != block_bits:
            self._blocks = self._shifted(block_bits)
            self._blocks_bits = block_bits
        return self._blocks

    def regions_for(self, region_bits: int) -> List[int]:
        """Region ids under a geometry with ``region_bits`` offset bits.

        ``region_bits`` counts byte-offset bits within a region (the
        :class:`~repro.common.addresses.AddressMap.region_bits` value),
        so ``regions_for(bits)[i] == region_of(accesses[i].address)``.
        """
        if self._regions_bits != region_bits:
            self._regions = self._shifted(region_bits)
            self._regions_bits = region_bits
        return self._regions

    def read_mask(self) -> List[bool]:
        """Per-access ``not is_write`` (True = demand read)."""
        if self._read_mask is None:
            timer = phases_active()
            start = perf_counter() if timer is not None else 0.0
            self._read_mask = [not a.is_write for a in self.accesses]
            if timer is not None:
                timer.add(PHASE_PREPASS, perf_counter() - start)
        return self._read_mask

    def stride_deltas(self, block_bits: int) -> List[int]:
        """Block-id delta to the previous access (first element: 0).

        The stride pre-pass for chunk-level consumers: sequential scans
        show up as runs of ``±1``, spatial bursts as small magnitudes,
        pointer chases as large irregular jumps.
        """
        if self._deltas_bits != block_bits:
            blocks = self.blocks_for(block_bits)
            # time only the delta computation: blocks_for above already
            # accounted its column under the same phase
            timer = phases_active()
            start = perf_counter() if timer is not None else 0.0
            addresses = self._addresses
            if addresses is not None and len(blocks) > 1:
                import numpy

                shifted = addresses >> numpy.uint64(block_bits)
                deltas = numpy.diff(shifted.astype(numpy.int64)).tolist()
                self._deltas = [0] + deltas
            else:
                self._deltas = [0] + [
                    b - a for a, b in zip(blocks, blocks[1:])
                ]
            self._deltas_bits = block_bits
            if timer is not None:
                timer.add(PHASE_PREPASS, perf_counter() - start)
        return self._deltas


def chunk_accesses(
    accesses: Iterable[MemoryAccess],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[AccessChunk]:
    """Batch any per-access iterable into :class:`AccessChunk` runs.

    The generic chunking wrapper for sources without a native chunk
    factory (generation passes, record-during-walk tees, materialized
    traces): the underlying iterator is drained exactly once, in order,
    so side effects of iteration (recording, accounting) behave exactly
    as in a record-at-a-time walk.
    """
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    iterator = iter(accesses)
    while True:
        batch: List[MemoryAccess] = []
        append = batch.append
        for access in iterator:
            append(access)
            if len(batch) >= chunk_records:
                break
        if not batch:
            return
        yield AccessChunk(batch, start_index=batch[0].index)


def iter_trace_chunks(trace: Iterable[MemoryAccess]) -> Iterator[AccessChunk]:
    """``trace`` as :class:`AccessChunk` runs, whatever its shape.

    Sources and materialized traces expose a native ``iter_chunks`` (a
    stored trace decodes whole chunks columnar); any other per-access
    iterable is batched generically — identical accesses either way.
    """
    chunks = getattr(trace, "iter_chunks", None)
    if chunks is not None:
        return iter(chunks())
    return chunk_accesses(trace)


def chunk_sequence(
    accesses: Sequence[MemoryAccess],
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> Iterator[AccessChunk]:
    """Chunk an in-memory sequence by slicing (no per-access iteration)."""
    if chunk_records <= 0:
        raise ValueError(f"chunk_records must be positive, got {chunk_records}")
    for start in range(0, len(accesses), chunk_records):
        batch = list(accesses[start:start + chunk_records])
        if batch:
            yield AccessChunk(batch, start_index=batch[0].index)
