"""The trace plane: record-once/replay-many binary trace store.

Trace generation is the dominant cost of a configuration sweep — every
streaming job used to regenerate its workload trace from scratch. This
package makes generation a shared, cacheable resource instead:

* :mod:`repro.tracestore.codec` — the compact binary record format
  (header / fixed-size records / CRC footer) with truncation and
  corruption rejection;
* :mod:`repro.tracestore.store` — the sharded on-disk
  :class:`TraceStore` keyed by the ``(workload, length, seed)`` trace
  key, with atomic publication, replay as a lazy
  :class:`~repro.trace.container.TraceSource`, and record-during-walk
  so the first generation pass is never wasted.

The engine (:mod:`repro.engine`) builds on this: serial runs fan one
trace walk out to every job sharing a trace key, and ``--jobs N``
workers replay the store instead of regenerating per job.
"""

from repro.tracestore.codec import (
    CODEC_VERSION,
    RECORD_SIZE,
    TraceFormatError,
    read_accesses,
    read_header,
    write_trace,
)
from repro.tracestore.store import (
    TraceKey,
    TraceStore,
    TraceStoreStats,
    default_trace_store_dir,
    trace_key_hash,
)

__all__ = [
    "CODEC_VERSION",
    "RECORD_SIZE",
    "TraceFormatError",
    "TraceKey",
    "TraceStore",
    "TraceStoreStats",
    "default_trace_store_dir",
    "read_accesses",
    "read_header",
    "trace_key_hash",
    "write_trace",
]
