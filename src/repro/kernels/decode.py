"""Record/chunk decode: raw trace bytes → :class:`AccessChunk`.

The record wire format (fixed 29-byte records, see :data:`RECORD`) is
what the on-disk codec (:mod:`repro.tracestore.codec`) frames into
files; replay feeds each stored chunk's bytes through
:func:`decode_chunk` here.

With numpy importable a whole chunk decodes columnar with
``numpy.frombuffer``; without it the scalar ``struct.iter_unpack``
path produces the identical objects.
"""

from __future__ import annotations

import struct
from time import perf_counter
from typing import List, Tuple

from repro.kernels import numpy_or_none
from repro.kernels.prepass import AccessChunk
from repro.telemetry import PHASE_DECODE, phases_active
from repro.trace.events import MemoryAccess

#: one access: pc u64, address u64, depends_on i64 (-1 = None),
#: instr_gap u32, is_write u8
RECORD = struct.Struct("<QQqIB")
RECORD_SIZE = RECORD.size


def encode_access(access: MemoryAccess) -> bytes:
    """One access as a fixed-size record (``index`` stays implicit)."""
    depends = -1 if access.depends_on is None else access.depends_on
    return RECORD.pack(
        access.pc, access.address, depends, access.instr_gap,
        1 if access.is_write else 0,
    )


def decode_record(index: int, record: Tuple[int, int, int, int, int]) -> MemoryAccess:
    """Rebuild the access at trace position ``index`` from its record."""
    pc, address, depends, instr_gap, is_write = record
    return MemoryAccess(
        index=index,
        pc=pc,
        address=address,
        is_write=bool(is_write),
        depends_on=None if depends < 0 else depends,
        instr_gap=instr_gap,
    )


_RECORD_DTYPE = None


def record_dtype(numpy):
    """The numpy structured dtype mirroring :data:`RECORD` (cached)."""
    global _RECORD_DTYPE
    if _RECORD_DTYPE is None:
        _RECORD_DTYPE = numpy.dtype([
            ("pc", "<u8"),
            ("address", "<u8"),
            ("depends", "<i8"),
            ("instr_gap", "<u4"),
            ("is_write", "u1"),
        ])
        assert _RECORD_DTYPE.itemsize == RECORD_SIZE
    return _RECORD_DTYPE


def decode_chunk(first_index: int, chunk: bytes) -> AccessChunk:
    """Decode one aligned chunk of raw record bytes.

    With numpy the whole chunk decodes columnar with
    ``numpy.frombuffer`` and the access objects are built by one
    C-driven ``map``; without numpy the scalar ``struct.iter_unpack``
    path produces the identical objects.

    The ``chunk_decode`` phase timer wraps this function (one timer
    call per chunk, nothing per record; ``REPRO_TELEMETRY=off``
    reduces it to a single ``None`` check).
    """
    timer = phases_active()
    if timer is None:
        return _decode_chunk(first_index, chunk)
    start = perf_counter()
    result = _decode_chunk(first_index, chunk)
    timer.add(PHASE_DECODE, perf_counter() - start)
    return result


# wrapped by name by perfbench/layers.py (the kernels.decode layer)
def _decode_chunk(first_index: int, chunk: bytes) -> AccessChunk:
    numpy = numpy_or_none()
    n = len(chunk) // RECORD_SIZE
    if numpy is not None:
        columns = numpy.frombuffer(chunk, dtype=record_dtype(numpy))
        addresses = columns["address"]
        depends = columns["depends"]
        if bool((depends < 0).all()):
            depends_list: List = [None] * n
        else:
            depends_list = depends.tolist()
            for position in numpy.flatnonzero(depends < 0).tolist():
                depends_list[position] = None
        accesses = list(map(
            MemoryAccess,
            range(first_index, first_index + n),
            columns["pc"].tolist(),
            addresses.tolist(),
            (columns["is_write"] != 0).tolist(),
            depends_list,
            columns["instr_gap"].tolist(),
        ))
        return AccessChunk(accesses, start_index=first_index,
                           addresses=addresses)
    accesses = [
        MemoryAccess(
            index=index,
            pc=pc,
            address=address,
            is_write=bool(is_write),
            depends_on=None if depends < 0 else depends,
            instr_gap=instr_gap,
        )
        for index, (pc, address, depends, instr_gap, is_write)
        in enumerate(RECORD.iter_unpack(chunk), start=first_index)
    ]
    return AccessChunk(accesses, start_index=first_index)
