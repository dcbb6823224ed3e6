"""Trace containers: materialized and streaming access sequences.

:class:`Trace` is an ordered in-memory collection of MemoryAccess records
plus metadata (workload name, category, generation parameters) and
persistence. :class:`TraceSource` is its lazy counterpart — the same
metadata plus a factory that yields accesses on demand, so the whole
pipeline (coverage driver, incremental timing model, streaming analyses)
can walk arbitrarily long traces in O(1) memory. ``materialize()`` —
the identity on a :class:`Trace` — drains a source into memory; the
engine only does that behind its explicit compatibility flag, and the
few consumers that genuinely need random access or ``len()``
(``simulate_timing`` over a recorded service list, trace persistence)
take a :class:`Trace` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.trace.events import MemoryAccess


@dataclass
class Trace:
    """An ordered memory-reference trace with provenance metadata."""

    name: str
    category: str = "synthetic"
    accesses: List[MemoryAccess] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def __getitem__(self, idx: int) -> MemoryAccess:
        return self.accesses[idx]

    def append(
        self,
        pc: int,
        address: int,
        is_write: bool = False,
        depends_on: Optional[int] = None,
        instr_gap: int = 4,
    ) -> MemoryAccess:
        """Append an access, assigning the next index automatically."""
        access = MemoryAccess(
            index=len(self.accesses),
            pc=pc,
            address=address,
            is_write=is_write,
            depends_on=depends_on,
            instr_gap=instr_gap,
        )
        self.accesses.append(access)
        return access

    def extend(self, accesses: Sequence[MemoryAccess]) -> None:
        """Append pre-built accesses, validating the index sequence."""
        for access in accesses:
            if access.index != len(self.accesses):
                raise ValueError(
                    f"access index {access.index} does not continue the trace "
                    f"(expected {len(self.accesses)})"
                )
            self.accesses.append(access)

    def reads(self) -> Iterator[MemoryAccess]:
        return (a for a in self.accesses if not a.is_write)

    def iter_chunks(self) -> Iterator["AccessChunk"]:
        """The trace as aligned :class:`~repro.kernels.AccessChunk` runs.

        The chunk-granular walk: same accesses, same order, batched by
        slicing (no per-access iteration).
        """
        from repro.kernels.prepass import chunk_sequence

        return chunk_sequence(self.accesses)

    def materialize(self) -> "Trace":
        """A :class:`Trace` is already materialized; returns itself."""
        return self

    # -- persistence ------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON-lines (one access per line after a header)."""
        path = Path(path)
        with path.open("w") as handle:
            header = {
                "name": self.name,
                "category": self.category,
                "metadata": self.metadata,
            }
            handle.write(json.dumps(header) + "\n")
            for a in self.accesses:
                record = [a.pc, a.address, int(a.is_write), a.depends_on, a.instr_gap]
                handle.write(json.dumps(record) + "\n")

    @staticmethod
    def load(path: Union[str, Path]) -> "Trace":
        path = Path(path)
        with path.open() as handle:
            header = json.loads(handle.readline())
            trace = Trace(
                name=header["name"],
                category=header.get("category", "synthetic"),
                metadata=header.get("metadata", {}),
            )
            for line in handle:
                pc, address, is_write, depends_on, instr_gap = json.loads(line)
                trace.append(
                    pc=pc,
                    address=address,
                    is_write=bool(is_write),
                    depends_on=depends_on,
                    instr_gap=instr_gap,
                )
        return trace


class TraceSource:
    """A lazy trace: metadata plus a factory yielding accesses on demand.

    Each ``iter()`` invokes ``factory`` anew, so a source built from a
    deterministic generator (seeded workload, file reader) can be walked
    repeatedly and always replays the same access sequence. The factory
    must yield accesses with consecutive indices starting at 0.

    Args:
        name: workload name carried into every result produced from this
            source.
        factory: zero-argument callable returning a fresh access
            iterable; invoked once per ``iter()`` pass.
        category: workload category label (``web``/``oltp``/...).
        metadata: provenance attached to materialized copies.
        length_hint: the *requested* access count, when known. A hint
            only — generators may overshoot by up to one burst — so
            consumers must not treat it as ``len()``.
        chunk_factory: optional zero-argument callable returning a fresh
            iterable of :class:`~repro.kernels.AccessChunk` runs over
            the *same* access sequence. Sources with a native chunked
            form (trace-store replay, which decodes whole stored chunks
            columnar) supply one; otherwise :meth:`iter_chunks` batches
            the per-record factory generically.
    """

    def __init__(
        self,
        name: str,
        factory: Callable[[], Iterable[MemoryAccess]],
        category: str = "synthetic",
        metadata: Optional[Dict[str, object]] = None,
        length_hint: Optional[int] = None,
        chunk_factory: Optional[Callable[[], Iterable]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.metadata: Dict[str, object] = dict(metadata or {})
        self.length_hint = length_hint
        self._factory = factory
        self._chunk_factory = chunk_factory

    def __iter__(self) -> Iterator[MemoryAccess]:
        """A fresh single-pass iterator over the access sequence."""
        return iter(self._factory())

    def iter_chunks(self) -> Iterator["AccessChunk"]:
        """A fresh single-pass chunk-granular walk of the sequence.

        Uses the native chunk factory when the source has one (stored
        traces decode columnar, whole chunks at a time); otherwise the
        per-record factory is drained once through a generic batching
        wrapper — identical accesses, identical order, identical side
        effects of iteration.
        """
        if self._chunk_factory is not None:
            return iter(self._chunk_factory())
        from repro.kernels.prepass import chunk_accesses

        return chunk_accesses(self._factory())

    def materialize(self) -> Trace:
        """Drain the source into an in-memory :class:`Trace`.

        This is the O(trace)-memory escape hatch: the engine streams by
        default and only materializes behind its compatibility flag.

        Returns:
            A :class:`Trace` holding every access the factory yields.

        Raises:
            ValueError: if the factory yields non-consecutive indices.
        """
        trace = Trace(
            name=self.name,
            category=self.category,
            metadata=dict(self.metadata),
        )
        accesses = trace.accesses
        expected = 0
        for access in self._factory():
            if access.index != expected:
                raise ValueError(
                    f"access index {access.index} does not continue the "
                    f"stream (expected {expected})"
                )
            accesses.append(access)
            expected += 1
        return trace


#: anything the simulation driver can walk: materialized or streaming
TraceLike = Union[Trace, TraceSource]
