"""Chunk-granular batching for the trace-walk hot path.

Every job funnels through one streaming trace walk, so the per-record
Python overhead of that walk bounds throughput for the whole system.
This package batches the walk a chunk at a time: trace-store records
are decoded in aligned blocks (:mod:`repro.kernels.decode`), the
per-access classification inputs (block ids, region ids, read/write
masks, stride deltas) are precomputed for a whole chunk at once
(:mod:`repro.kernels.prepass`), and consumers are pumped with C-driven
``map`` loops instead of one Python iteration per record.

numpy is optional (the ``[vector]`` extra). When it imports, chunk
decode and the pre-pass work on ``numpy.frombuffer`` columns;
otherwise ``struct.iter_unpack`` and list comprehensions build the
identical objects. No user option chooses between the two.
"""

from __future__ import annotations

_numpy = None
_numpy_checked = False


# read by perfbench/run.py (the numpy version in a run's conditions)
def numpy_or_none():
    """The ``numpy`` module when importable, else None (cached)."""
    global _numpy, _numpy_checked
    if not _numpy_checked:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
        _numpy_checked = True
    return _numpy


from repro.kernels.prepass import (  # noqa: E402  (re-export)
    AccessChunk,
    chunk_accesses,
    iter_trace_chunks,
)

__all__ = [
    "AccessChunk",
    "chunk_accesses",
    "iter_trace_chunks",
    "numpy_or_none",
]
