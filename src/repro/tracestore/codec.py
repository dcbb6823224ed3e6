"""Compact binary trace codec: the record format of the trace plane.

A trace file is append-only and self-describing::

    magic "RTRC" | u16 version | u32 header-length | header JSON (utf-8)
    record * N                     (fixed 29-byte records, see RECORD)
    index: magic "TIDX" | u32 entries
           | entry * E             (u64 first record index,
                                    u64 byte offset into the payload,
                                    u32 crc32 of that chunk's bytes)
    footer: magic "TEND" | u64 record count | u32 crc32(records)
            | u32 index-section bytes

The header JSON carries the trace's identity and provenance (workload
name, category, requested length, seed, generator metadata). Records
hold every :class:`~repro.trace.events.MemoryAccess` field except
``index``, which is implicit — records are stored in trace order, so
record *i* decodes to the access with ``index == i``. The footer's
record count and payload CRC are what let a reader reject truncated or
corrupted files instead of replaying garbage into a simulation.

The index section (codec version 2) maps each aligned
:data:`CHUNK_RECORDS`-record chunk to its byte offset and its own CRC.
It is what makes the chunk the replay unit: the trace walk decodes
whole chunks at once (:func:`read_access_chunks`), and a windowed
replay (``start_record=N``) seeks straight to the chunk containing
record *N* and verifies only the chunks it actually reads — warm-up
skipping without a front-to-back scan. The rolling whole-payload CRC is
still verified on full replays, so the two read paths reject the same
damage.

Writers never expose a partial file: they stream records to a
temporary sibling and publish it with an atomic ``os.replace`` only
after the footer is written (see :mod:`repro.tracestore.store`).
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Tuple, Union

from repro.kernels.decode import (  # noqa: F401  (re-exported wire format)
    RECORD,
    RECORD_SIZE,
    decode_chunk,
    decode_record,
    encode_access,
)
from repro.kernels.prepass import AccessChunk
from repro.trace.events import MemoryAccess

MAGIC = b"RTRC"
FOOTER_MAGIC = b"TEND"
INDEX_MAGIC = b"TIDX"
#: bumped when the record layout changes incompatibly
#: (2: per-chunk byte-offset/CRC index section before the footer)
CODEC_VERSION = 2

_PREAMBLE = struct.Struct("<4sHI")  # magic, version, header length
#: magic, record count, payload crc32, index-section length
_FOOTER = struct.Struct("<4sQII")
FOOTER_SIZE = _FOOTER.size

_INDEX_HEADER = struct.Struct("<4sI")  # magic, entry count
_INDEX_ENTRY = struct.Struct("<QQI")  # first record index, byte offset, crc32

#: records per aligned chunk: the write/read syscall granularity, the
#: index granularity, and the trace walk's decode unit
CHUNK_RECORDS = 4096


class TraceFormatError(ValueError):
    """A trace file is truncated, corrupt, or from an unknown format."""


class ChunkIndexEntry(NamedTuple):
    """One aligned chunk's position in the record payload."""

    #: trace index of the chunk's first record
    record_index: int
    #: byte offset of the chunk relative to the payload start
    byte_offset: int
    #: crc32 of exactly this chunk's bytes (windowed-replay validation)
    crc: int


def encode_into(
    handle, header: Dict[str, Any], accesses: Iterable[MemoryAccess],
) -> Iterator[MemoryAccess]:
    """Encode ``accesses`` into an open binary ``handle``, re-yielding
    each access after it is buffered.

    This is the single encode loop behind both :func:`write_trace`
    (which drains it) and the store's record-during-walk path (which
    forwards the yields to live consumers, so one generation pass both
    feeds a fan-out group and publishes the file). Each flushed chunk
    contributes one index entry; the index and footer are written
    when — and only when — the input is exhausted, so an abandoned walk
    leaves an unterminated file that readers reject.

    Raises:
        ValueError: if ``accesses`` yields non-consecutive indices.
    """
    header_blob = json.dumps(header, sort_keys=True).encode()
    crc = 0
    count = 0
    offset = 0
    index_entries: List[bytes] = []
    pack = RECORD.pack
    handle.write(_PREAMBLE.pack(MAGIC, CODEC_VERSION, len(header_blob)))
    handle.write(header_blob)
    chunk = bytearray()
    chunk_start = 0

    def _flush() -> None:
        nonlocal crc, offset, chunk_start
        chunk_crc = zlib.crc32(chunk)
        index_entries.append(
            _INDEX_ENTRY.pack(chunk_start, offset, chunk_crc)
        )
        crc = zlib.crc32(chunk, crc)
        offset += len(chunk)
        handle.write(chunk)
        chunk_start = count
        chunk.clear()

    for access in accesses:
        if access.index != count:
            raise ValueError(
                f"access index {access.index} does not continue the "
                f"stream (expected {count})"
            )
        depends = -1 if access.depends_on is None else access.depends_on
        chunk += pack(access.pc, access.address, depends,
                      access.instr_gap, 1 if access.is_write else 0)
        count += 1
        if len(chunk) >= CHUNK_RECORDS * RECORD_SIZE:
            _flush()
        yield access
    if chunk:
        _flush()
    index_blob = _INDEX_HEADER.pack(INDEX_MAGIC, len(index_entries))
    index_blob += b"".join(index_entries)
    handle.write(index_blob)
    handle.write(_FOOTER.pack(FOOTER_MAGIC, count, crc, len(index_blob)))


def write_trace(
    path: Union[str, Path],
    header: Dict[str, Any],
    accesses: Iterable[MemoryAccess],
) -> Tuple[int, int]:
    """Encode ``accesses`` into ``path`` (header, records, index, footer).

    Args:
        path: destination file (the caller owns atomicity — pass a
            temporary path and ``os.replace`` it after this returns).
        header: JSON-able identity/provenance metadata.
        accesses: trace records in order; indices must be consecutive
            from 0.

    Returns:
        ``(record_count, file_bytes)`` for accounting.
    """
    path = Path(path)
    with path.open("wb") as handle:
        count = sum(1 for _ in encode_into(handle, header, accesses))
        size = handle.tell()
    return count, size


class _Layout(NamedTuple):
    """Validated byte layout of one trace file."""

    header: Dict[str, Any]
    payload_start: int
    payload_bytes: int
    count: int
    crc: int
    index_start: int
    index_bytes: int


def _read_layout(path: Path) -> _Layout:
    """Validate ``path``'s framing and return its byte layout.

    The cheap structural checks: magic, codec version, header
    integrity, footer magic, index magic/arithmetic, and that the
    payload size matches the footer's record count. Record contents
    (the payload CRC) are verified during replay.
    """
    try:
        size = path.stat().st_size
        with path.open("rb") as handle:
            preamble = handle.read(_PREAMBLE.size)
            if len(preamble) != _PREAMBLE.size:
                raise TraceFormatError(f"{path}: truncated preamble")
            magic, version, header_len = _PREAMBLE.unpack(preamble)
            if magic != MAGIC:
                raise TraceFormatError(f"{path}: not a trace file")
            if version != CODEC_VERSION:
                raise TraceFormatError(
                    f"{path}: codec version {version} (expected {CODEC_VERSION})"
                )
            header_blob = handle.read(header_len)
            if len(header_blob) != header_len:
                raise TraceFormatError(f"{path}: truncated header")
            try:
                header = json.loads(header_blob)
            except ValueError as error:
                raise TraceFormatError(f"{path}: bad header JSON") from error
            if size < _PREAMBLE.size + header_len + FOOTER_SIZE:
                raise TraceFormatError(f"{path}: missing footer (truncated?)")
            handle.seek(size - FOOTER_SIZE)
            footer_magic, count, crc, index_bytes = _FOOTER.unpack(
                handle.read(FOOTER_SIZE)
            )
            if footer_magic != FOOTER_MAGIC:
                raise TraceFormatError(f"{path}: missing footer (truncated?)")
            payload_start = _PREAMBLE.size + header_len
            index_start = size - FOOTER_SIZE - index_bytes
            payload = index_start - payload_start
            if payload < 0 or payload % RECORD_SIZE:
                raise TraceFormatError(f"{path}: truncated record payload")
            if count * RECORD_SIZE != payload:
                raise TraceFormatError(
                    f"{path}: footer claims {count} records, "
                    f"payload holds {payload // RECORD_SIZE}"
                )
            expected_entries = -(-count // CHUNK_RECORDS)  # ceil
            if index_bytes != (
                _INDEX_HEADER.size + expected_entries * _INDEX_ENTRY.size
            ):
                raise TraceFormatError(f"{path}: malformed chunk index")
            handle.seek(index_start)
            index_preamble = handle.read(_INDEX_HEADER.size)
            if len(index_preamble) != _INDEX_HEADER.size:
                raise TraceFormatError(f"{path}: truncated chunk index")
            index_magic, entries = _INDEX_HEADER.unpack(index_preamble)
            if index_magic != INDEX_MAGIC or entries != expected_entries:
                raise TraceFormatError(f"{path}: malformed chunk index")
    except OSError as error:
        raise TraceFormatError(f"{path}: unreadable ({error})") from error
    return _Layout(
        header=header,
        payload_start=payload_start,
        payload_bytes=payload,
        count=count,
        crc=crc,
        index_start=index_start,
        index_bytes=index_bytes,
    )


def read_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Validate ``path``'s framing and return its header JSON.

    Raises:
        TraceFormatError: on any structural mismatch.
    """
    return _read_layout(Path(path)).header


def _read_index_entries(path: Path, layout: _Layout) -> List[ChunkIndexEntry]:
    """Decode the index section of an already-validated ``layout``."""
    entries: List[ChunkIndexEntry] = []
    with path.open("rb") as handle:
        handle.seek(layout.index_start + _INDEX_HEADER.size)
        blob = handle.read(layout.index_bytes - _INDEX_HEADER.size)
    expected_start = 0
    expected_offset = 0
    for record_index, byte_offset, crc in _INDEX_ENTRY.iter_unpack(blob):
        if record_index != expected_start or byte_offset != expected_offset:
            raise TraceFormatError(f"{path}: inconsistent chunk index")
        entries.append(ChunkIndexEntry(record_index, byte_offset, crc))
        expected_start += CHUNK_RECORDS
        expected_offset += CHUNK_RECORDS * RECORD_SIZE
    return entries


def read_chunk_index(path: Union[str, Path]) -> List[ChunkIndexEntry]:
    """The per-chunk byte-offset index from ``path``'s index section.

    One entry per aligned :data:`CHUNK_RECORDS`-record chunk, in trace
    order. Offsets are relative to the payload start; each entry's CRC
    covers exactly its chunk's bytes, which is what lets a windowed
    replay validate only the region it reads.

    Raises:
        TraceFormatError: on structural damage or index inconsistency.
    """
    path = Path(path)
    return _read_index_entries(path, _read_layout(path))


def _read_exact(handle, want: int, path: Path) -> bytes:
    chunk = handle.read(want)
    while 0 < len(chunk) < want:  # top up a short read
        more = handle.read(want - len(chunk))
        if not more:
            break
        chunk += more
    if len(chunk) != want:
        raise TraceFormatError(f"{path}: payload ended early")
    return chunk


def _iter_chunk_bytes(path: Path) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(first_record_index, chunk_bytes)`` for the full payload.

    Verifies the rolling payload CRC and the footer count as it goes —
    the same guarantees as a record-at-a-time replay, delivered at
    chunk granularity.
    """
    layout = _read_layout(path)
    with path.open("rb") as handle:
        handle.seek(layout.payload_start)
        remaining = layout.payload_bytes
        chunk_bytes = CHUNK_RECORDS * RECORD_SIZE
        crc = 0
        index = 0
        while remaining:
            want = min(chunk_bytes, remaining)
            chunk = _read_exact(handle, want, path)
            remaining -= want
            crc = zlib.crc32(chunk, crc)
            yield index, chunk
            index += want // RECORD_SIZE
        if index != layout.count:
            raise TraceFormatError(
                f"{path}: replayed {index} records, footer claims "
                f"{layout.count}"
            )
        if crc != layout.crc:
            raise TraceFormatError(f"{path}: payload CRC mismatch")


def _iter_chunk_bytes_from(
    path: Path, start_record: int
) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(first_record_index, chunk_bytes)`` from the chunk
    containing ``start_record`` onward.

    Uses the index section to seek straight to the right chunk and
    validates each chunk it reads against the indexed per-chunk CRC
    (the rolling whole-payload CRC cannot be checked without the
    skipped prefix — the per-chunk CRCs close exactly that gap).
    """
    if start_record < 0:
        raise ValueError(f"start_record must be >= 0, got {start_record}")
    layout = _read_layout(path)
    if start_record >= layout.count:
        return
    entries = _read_index_entries(path, layout)
    with path.open("rb") as handle:
        for entry in entries[start_record // CHUNK_RECORDS:]:
            handle.seek(layout.payload_start + entry.byte_offset)
            want = min(CHUNK_RECORDS * RECORD_SIZE,
                       layout.payload_bytes - entry.byte_offset)
            chunk = _read_exact(handle, want, path)
            if zlib.crc32(chunk) != entry.crc:
                raise TraceFormatError(
                    f"{path}: chunk CRC mismatch at record "
                    f"{entry.record_index}"
                )
            yield entry.record_index, chunk


def read_access_chunks(
    path: Union[str, Path], start_record: int = 0
) -> Iterator[AccessChunk]:
    """Replay ``path`` as aligned :class:`AccessChunk` runs.

    The chunk-granular counterpart of :func:`read_accesses`: the
    decoded access objects are bit-identical to the record-at-a-time
    replay, batched per stored chunk with the address column attached
    for the vectorized pre-pass. A full replay (``start_record=0``)
    verifies the rolling payload CRC; a windowed replay seeks via the
    chunk index, verifies each read chunk's own CRC, and trims the
    leading chunk to start exactly at ``start_record``.

    Raises:
        TraceFormatError: on structural damage or a CRC mismatch.
    """
    path = Path(path)
    if start_record:
        raw = _iter_chunk_bytes_from(path, start_record)
    else:
        raw = _iter_chunk_bytes(path)
    for first_index, chunk in raw:
        decoded = decode_chunk(first_index, chunk)
        if start_record > first_index:
            trim = start_record - first_index
            decoded = AccessChunk(
                decoded.accesses[trim:],
                start_index=start_record,
                addresses=(
                    decoded._addresses[trim:]
                    if decoded._addresses is not None else None
                ),
            )
        if decoded.accesses:
            yield decoded


def read_accesses(
    path: Union[str, Path], start_record: int = 0
) -> Iterator[MemoryAccess]:
    """Replay ``path``'s records as :class:`MemoryAccess` objects.

    Streams the payload in chunks (O(1) memory in trace length) and
    verifies the footer CRC as it goes; a corrupted payload raises
    :class:`TraceFormatError` at the end of the walk, before a consumer
    can treat the replay as complete. With ``start_record > 0`` the
    walk seeks via the chunk index and verifies per-chunk CRCs instead
    (see :func:`read_access_chunks`).

    Raises:
        TraceFormatError: on structural damage or a CRC mismatch.
    """
    path = Path(path)
    if start_record:
        for chunk in read_access_chunks(path, start_record):
            yield from chunk.accesses
        return
    for first_index, chunk in _iter_chunk_bytes(path):
        index = first_index
        for record in RECORD.iter_unpack(chunk):
            pc, address, depends, instr_gap, is_write = record
            yield MemoryAccess(
                index=index,
                pc=pc,
                address=address,
                is_write=bool(is_write),
                depends_on=None if depends < 0 else depends,
                instr_gap=instr_gap,
            )
            index += 1
