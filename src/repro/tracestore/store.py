"""On-disk trace store: record a workload trace once, replay it anywhere.

The store is the shared *trace plane* between generation and execution.
Each entry holds one complete generated trace, keyed by the same
``(workload, length, seed)`` trace key that :class:`~repro.engine.job.SimJob`
exposes — any two jobs with equal trace keys walk bit-identical access
sequences, so one recorded file can feed every configuration sweep over
that trace. Entries live in two-hex-character shard subdirectories
(``ab/<key-hash>.trace``) so million-entry stores never degenerate into
one flat directory, and every write goes through a temporary sibling and
an atomic ``os.replace`` — concurrent recorders of the same key are
idempotent (identical content, last rename wins) and readers never see a
partial file.

Three ways to obtain a replayable :class:`~repro.trace.container.TraceSource`:

* :meth:`TraceStore.open_source` — replay an existing entry (raises on a
  missing/corrupt file);
* :meth:`TraceStore.record` — generate the full trace into the store
  without feeding any consumer (the engine's parallel pre-record step);
* :meth:`TraceStore.source` — replay when recorded, otherwise *record
  during the walk*: the first full iteration both feeds its consumers
  and publishes the entry, so the generation pass is never wasted.

A corrupt or truncated entry is treated as missing (and overwritten by
the next recording), never replayed: the codec's structural checks and
payload CRC guard the boundary.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.trace.container import TraceSource
from repro.tracestore.codec import (
    FOOTER_SIZE,
    RECORD_SIZE,
    TraceFormatError,
    encode_into,
    read_access_chunks,
    read_accesses,
    read_header,
)
from repro.workloads.registry import stream_workload

#: trace keys are (workload, length, seed) — see SimJob.trace_key
TraceKey = Tuple[str, int, int]


def _fault_plane():
    """The fault helpers, imported lazily (cold paths only) to keep
    ``repro.tracestore`` importable without dragging in the engine
    package first (``repro.engine`` imports this module at top level)."""
    from repro.engine.faultinject import maybe_corrupt_trace
    from repro.engine.faults import quarantine_file

    return maybe_corrupt_trace, quarantine_file

#: bumped when key derivation or the stored header schema changes
#: (2: codec v2 — per-chunk byte-offset index in the footer framing)
STORE_VERSION = 2


def trace_key_hash(workload: str, length: int, seed: int) -> str:
    """Stable content hash naming the store entry for one trace key.

    Mixes in the store/codec version so a format bump automatically
    invalidates (ignores) entries written by older code.
    """
    payload = json.dumps(
        {
            "workload": workload,
            "length": length,
            "seed": seed,
            "store": STORE_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class TraceStoreStats:
    """Replay/recording accounting for one store handle.

    ``quarantined`` counts damaged entries moved aside (structural
    rejection at open, or a mid-walk CRC failure the recovery path
    reported); ``replay_fallbacks`` counts replays that degraded to a
    fresh generation pass after quarantining their entry.
    """

    hits: int = 0
    misses: int = 0
    generated: int = 0
    bytes_replayed: int = 0
    quarantined: int = 0
    replay_fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "generated": self.generated,
            "bytes_replayed": self.bytes_replayed,
            "quarantined": self.quarantined,
            "replay_fallbacks": self.replay_fallbacks,
        }

    def absorb(self, delta: Dict[str, int]) -> None:
        """Fold another handle's counters (e.g. a pool worker's) in."""
        self.hits += delta.get("hits", 0)
        self.misses += delta.get("misses", 0)
        self.generated += delta.get("generated", 0)
        self.bytes_replayed += delta.get("bytes_replayed", 0)
        self.quarantined += delta.get("quarantined", 0)
        self.replay_fallbacks += delta.get("replay_fallbacks", 0)


class TraceStore:
    """Sharded record-once/replay-many trace store under ``directory``."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = TraceStoreStats()

    # -- layout ------------------------------------------------------------

    def path_for(self, key: TraceKey) -> Path:
        digest = trace_key_hash(*key)
        return self.directory / digest[:2] / f"{digest}.trace"

    def has(self, key: TraceKey) -> bool:
        """True when ``key`` has a structurally valid entry on disk.

        A structurally damaged entry (bad magic, truncation, missing
        footer) is quarantined on sight — moved into ``quarantine/``
        with a reason file — so the next recording starts clean and the
        evidence survives for debugging.
        """
        path = self.path_for(key)
        if not path.exists():
            return False
        try:
            read_header(path)
        except TraceFormatError as error:
            self.quarantine_entry(key, f"structural damage: {error}")
            return False
        return True

    def verify(self, key: TraceKey) -> bool:
        """True when ``key``'s entry replays cleanly end-to-end.

        A full integrity pass: structural checks, per-record decode
        (including access validation), and the payload CRC. Used by the
        recovery paths to decide whether a failed replay walk died of a
        damaged entry (→ quarantine and regenerate) or a genuine
        consumer error (→ the job itself is at fault).
        """
        path = self.path_for(key)
        if not path.exists():
            return False
        try:
            for _ in read_accesses(path):
                pass
        except Exception:
            return False
        return True

    def quarantine_if_damaged(self, key: TraceKey, reason: str) -> bool:
        """Quarantine ``key``'s entry iff it exists and fails :meth:`verify`.

        Returns:
            True when a damaged entry was present (and is now moved
            aside, so the next recording starts clean); False when the
            entry is missing or verifies clean — corruption can then be
            ruled out as the cause of whatever failure prompted the
            check.
        """
        path = self.path_for(key)
        if not path.exists() or self.verify(key):
            return False
        self.quarantine_entry(key, reason)
        return True

    def was_quarantined(self, key: TraceKey) -> bool:
        """True when ``key`` has ever had an entry quarantined.

        Evidence check for racing recoverers: a walker that read a
        damaged entry may find it already quarantined — and freshly
        republished, clean — by the racer that noticed first. The
        quarantine directory keeps the damaged file under the key's
        digest, so its presence licenses retrying a failed walk whose
        entry now verifies.
        """
        from repro.engine.faults import QUARANTINE_DIR

        digest = trace_key_hash(*key)
        quarantine = self.directory / QUARANTINE_DIR
        if not quarantine.is_dir():
            return False
        return any(quarantine.glob(f"{digest}.trace*"))

    def quarantine_entry(self, key: TraceKey, reason: str) -> Optional[Path]:
        """Move ``key``'s damaged entry aside instead of deleting it.

        Returns:
            The quarantined file's path under ``quarantine/``, or None
            when the entry no longer exists (another recoverer won the
            race) — in which case nothing is counted.
        """
        _, quarantine = _fault_plane()
        moved = quarantine(self.path_for(key), self.directory, reason)
        if moved is not None:
            self.stats.quarantined += 1
        return moved

    def catalog(self) -> List[Dict[str, object]]:
        """Headers of every valid entry (provenance listing, tests)."""
        entries = []
        for path in sorted(self.directory.glob("??/*.trace")):
            try:
                entries.append(read_header(path))
            except TraceFormatError:
                continue
        return entries

    # -- recording ---------------------------------------------------------

    def record(self, key: TraceKey) -> Path:
        """Generate ``key``'s full trace and publish it atomically.

        A no-op (and a cheap one) when a valid entry already exists.

        Returns:
            The entry's path.
        """
        path = self.path_for(key)
        if self.has(key):
            return path
        source = _generation_source(key)
        self._write(path, _entry_header(key, source), iter(source))
        self.stats.misses += 1
        self.stats.generated += 1
        _fault_plane()[0](path)
        return path

    def _write(self, path: Path, header: Dict[str, object],
               accesses) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                for _ in encode_into(handle, header, accesses):
                    pass
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)

    # -- replay ------------------------------------------------------------

    def open_source(self, key: TraceKey, start_record: int = 0) -> TraceSource:
        """Replay an existing entry as a re-iterable :class:`TraceSource`.

        The source carries a native chunk factory: the chunked walk
        decodes whole stored chunks columnar via
        :meth:`TraceSource.iter_chunks`, while per-record consumers
        iterate as before. With ``start_record > 0`` the
        replay seeks via the entry's chunk index and skips the warm-up
        prefix (windowed replay, validated by per-chunk CRCs).

        Raises:
            TraceFormatError: when the entry is missing, truncated or
                corrupt (``has()`` first to treat those as misses).
        """
        path = self.path_for(key)
        header = read_header(path)
        self.stats.hits += 1
        return TraceSource(
            name=str(header.get("name", key[0])),
            factory=lambda: self._replay(path, start_record),
            category=str(header.get("category", "synthetic")),
            metadata=dict(header.get("metadata", {})),
            length_hint=key[1],
            chunk_factory=lambda: self._replay_chunks(path, start_record),
        )

    def _replay(self, path: Path, start_record: int = 0) -> Iterator:
        bytes_per = RECORD_SIZE
        count = 0
        for access in read_accesses(path, start_record):
            count += 1
            yield access
        self.stats.bytes_replayed += count * bytes_per + FOOTER_SIZE

    def _replay_chunks(self, path: Path, start_record: int = 0) -> Iterator:
        """Chunk-granular replay with the same byte accounting as
        :meth:`_replay` (one stored record costs one replayed record,
        whichever decode path delivered it)."""
        count = 0
        for chunk in read_access_chunks(path, start_record):
            count += len(chunk)
            yield chunk
        self.stats.bytes_replayed += count * RECORD_SIZE + FOOTER_SIZE

    def source(self, key: TraceKey) -> TraceSource:
        """Replay ``key`` if recorded; otherwise record it *during* the
        first full walk (the generation pass also publishes the entry).

        The presence check re-runs per iteration pass, so a source built
        before the entry existed switches to replay once any walker —
        this process or another — has published it.
        """
        if self.has(key):
            return self.open_source(key)
        template = _generation_source(key)

        def factory():
            if self.has(key):
                self.stats.hits += 1
                return self._replay(self.path_for(key))
            return self._record_while_walking(key)

        def chunk_factory():
            if self.has(key):
                self.stats.hits += 1
                return self._replay_chunks(self.path_for(key))
            # generation pass: batch the record-during-walk tee so the
            # recording side effect still happens exactly once, in order
            from repro.kernels.prepass import chunk_accesses

            return chunk_accesses(self._record_while_walking(key))

        return TraceSource(
            name=template.name,
            factory=factory,
            category=template.category,
            metadata=dict(template.metadata),
            length_hint=key[1],
            chunk_factory=chunk_factory,
        )

    def _record_while_walking(self, key: TraceKey) -> Iterator:
        """Generate, yielding each access while teeing it into the store."""
        self.stats.misses += 1
        self.stats.generated += 1
        source = _generation_source(key)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            yield from _tee_write(tmp, _entry_header(key, source), source)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)
        _fault_plane()[0](path)


def _tee_write(tmp: Path, header: Dict[str, object], source) -> Iterator:
    """Yield ``source``'s accesses while encoding them into ``tmp``.

    A thin wrapper over the codec's shared encode loop: each access is
    buffered for the file and forwarded to the live consumers in the
    same single-pass step.
    """
    with tmp.open("wb") as handle:
        yield from encode_into(handle, header, source)


def _generation_source(key: TraceKey) -> TraceSource:
    workload, length, seed = key
    return stream_workload(workload, length, seed)


def _entry_header(key: TraceKey, source: TraceSource) -> Dict[str, object]:
    workload, length, seed = key
    return {
        "store": STORE_VERSION,
        "workload": workload,
        "length": length,
        "seed": seed,
        "name": source.name,
        "category": source.category,
        "metadata": dict(source.metadata),
    }


def default_trace_store_dir() -> Optional[str]:
    """The ``REPRO_TRACE_STORE`` environment default, if set."""
    value = os.environ.get("REPRO_TRACE_STORE", "").strip()
    return value or None
