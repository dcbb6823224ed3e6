"""Job execution: trace streaming, predictor construction, dispatch.

This module is the worker side of the engine: :func:`execute_job` takes a
picklable :class:`SimJob` and returns a picklable result dataclass, so it
runs identically inline (serial mode) and inside a
``ProcessPoolExecutor`` worker (parallel mode). Results are bit-identical
either way because every job rebuilds its trace and predictor from the
job's seeds alone.

Every job kind runs **single-pass and O(1) in memory** by default: the
trace is a re-iterable :class:`~repro.trace.container.TraceSource` whose
accesses flow straight into the coverage driver / analysis consumers and
are garbage the moment they are processed. A timing job shares one walk
between coverage classification and the incremental
:class:`~repro.sim.timing.TimingModel` — no trace, no service list.
When a :class:`~repro.tracestore.TraceStore` is supplied, the source
replays the recorded binary trace (or records it during the first walk)
instead of regenerating it — same sequence, same results, no generator
cost; :func:`execute_job_for_pool` is the worker entry that also
returns the replay/recording accounting to the parent engine.

The **materialize compatibility flag** (``execute_job(job,
materialize=True)``, ``Engine(materialize=True)``, CLI
``--materialize``, env ``REPRO_MATERIALIZE=1``) restores the previous
behaviour: traces are generated into memory once and memoized per
process in a small bounded LRU keyed by ``(workload, length, seed)``,
which trades O(trace) memory for cheaper repeat walks when many jobs
share a trace. Both paths walk the identical access sequence through
identical consumers, so results are bit-identical — the flag only moves
the memory/time trade-off.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.tracestore import TraceStore

from repro.analysis.correlation import CorrelationDistanceAnalysis
from repro.analysis.joint import JointPredictabilityAnalysis
from repro.analysis.repetition import RepetitionAnalysis
from repro.common.config import SMSConfig, STeMSConfig, TMSConfig
from repro.engine.faultinject import maybe_fail_job
from repro.engine.job import (
    CONFIGURABLE_PREFETCHER_KINDS,
    KIND_CORRELATION,
    KIND_COVERAGE,
    KIND_JOINT,
    KIND_REPETITION,
    KIND_TIMING,
    PrefetcherSpec,
    SimJob,
)
from repro.prefetch.base import Prefetcher
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.ghb import GHBPrefetcher
from repro.prefetch.hybrid import NaiveHybridPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import SimulationDriver
from repro.sim.timing import TimingModel
from repro.telemetry import process_registry, telemetry_enabled
from repro.trace.container import Trace, TraceLike
from repro.workloads.registry import (
    WORKLOAD_CATEGORIES,
    make_workload,
    stream_workload,
)

def default_materialize() -> bool:
    """Process-wide default for the materialize compatibility flag.

    Read from the ``REPRO_MATERIALIZE`` environment variable at call
    time, so setting it after import (tests, wrapper scripts) works.
    """
    return os.environ.get("REPRO_MATERIALIZE", "").lower() in (
        "1", "true", "yes",
    )


#: traces kept alive per process (materialize mode only); the suite has
#: 10 workloads and traces are the dominant memory term, so keep the cap
#: modest
_TRACE_MEMO_CAP = 16
_TRACE_MEMO: "OrderedDict[tuple, Trace]" = OrderedDict()


def materialized_trace(workload: str, length: int, seed: int) -> Trace:
    """Generate (or fetch from the per-process memo) one workload trace."""
    key = (workload, length, seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        trace = make_workload(workload).generate(length, seed=seed)
        _TRACE_MEMO[key] = trace
        while len(_TRACE_MEMO) > _TRACE_MEMO_CAP:
            _TRACE_MEMO.popitem(last=False)
    else:
        _TRACE_MEMO.move_to_end(key)
    return trace


def clear_trace_memo() -> None:
    _TRACE_MEMO.clear()


def job_trace(
    job: SimJob, materialize: bool, trace_store: Optional["TraceStore"] = None
) -> TraceLike:
    """The trace a job walks.

    Precedence: the memoized in-memory trace when the materialize
    compatibility flag is set; otherwise a :class:`TraceStore` source
    when a store is supplied (replay if recorded, record-during-walk if
    not); otherwise a fresh streaming generation pass. All three yield
    the identical access sequence for a given trace key.
    """
    if materialize:
        return materialized_trace(job.workload, job.length, job.seed)
    if trace_store is not None:
        return trace_store.source(job.trace_key)
    return stream_workload(job.workload, job.length, job.seed)


def build_prefetcher(
    spec: Optional[PrefetcherSpec], workload: str
) -> Optional[Prefetcher]:
    """Construct the predictor a spec describes for ``workload``.

    Scientific workloads get the deeper lookahead the paper argues for in
    §4.3; ``spec.overrides`` are applied to the main predictor's config
    via ``dataclasses.replace`` (sensitivity sweeps).
    """
    if spec is None:
        return None
    scientific = WORKLOAD_CATEGORIES.get(workload) == "scientific"
    overrides = dict(spec.overrides)
    kind = spec.kind
    main: Optional[Prefetcher]
    if overrides and kind not in CONFIGURABLE_PREFETCHER_KINDS:
        # PrefetcherSpec rejects this at construction; re-check here so a
        # hand-built spec can't silently run an unconfigured predictor
        raise ValueError(
            f"prefetcher kind {kind!r} does not take config overrides"
        )
    if kind == "none":
        return None
    if kind == "stride":
        return StridePrefetcher()
    if kind == "markov":
        main = MarkovPrefetcher()
    elif kind == "ghb":
        main = GHBPrefetcher()
    elif kind == "tms":
        base = TMSConfig(lookahead=12) if scientific else TMSConfig()
        main = TMSPrefetcher(replace(base, **overrides))
    elif kind == "sms":
        main = SMSPrefetcher(replace(SMSConfig(), **overrides))
    elif kind == "stems":
        base = STeMSConfig.scientific() if scientific else STeMSConfig()
        main = STeMSPrefetcher(replace(base, **overrides))
    elif kind == "hybrid":
        main = NaiveHybridPrefetcher(
            TMSConfig(lookahead=12) if scientific else TMSConfig(), SMSConfig()
        )
    else:
        raise ValueError(f"unknown prefetcher kind {kind!r}")
    if spec.with_stride:
        return CompositePrefetcher(main)
    return main


def timing_model_for_job(job: SimJob) -> TimingModel:
    """The incremental ROB/MLP model a timing job's walk feeds."""
    warm = int(job.length * float(job.param("warmup_fraction", 0.0)))
    return TimingModel(
        job.system.timing,
        workload=job.workload,
        prefetcher_name=job.prefetcher.kind if job.prefetcher else "none",
        measure_from=warm,
    )


def analysis_for_job(job: SimJob) -> Any:
    """The :class:`StreamingAnalysis` consumer for an analysis-kind job.

    Shared by the solo execution path (which drives ``consume(trace)``)
    and the fan-out scheduler (which pushes ``update(access)`` from a
    shared walk) so both construct identical analysis state.
    """
    if job.kind == KIND_JOINT:
        skip = float(job.param("skip_fraction", 0.0))
        if not 0.0 <= skip < 1.0:
            raise ValueError(f"skip_fraction must be in [0, 1), got {skip}")
        return JointPredictabilityAnalysis(
            job.system,
            measure_from=int(job.length * skip),
            workload=job.workload,
        )
    if job.kind == KIND_REPETITION:
        return RepetitionAnalysis(
            job.system,
            max_elements=int(job.param("max_elements", 60000)),
            workload=job.workload,
        )
    if job.kind == KIND_CORRELATION:
        return CorrelationDistanceAnalysis(
            job.system, workload=job.workload
        )
    raise ValueError(f"job kind {job.kind!r} is not an analysis kind")


def _run_coverage(job: SimJob, trace: TraceLike) -> Any:
    prefetcher = build_prefetcher(job.prefetcher, job.workload)
    return SimulationDriver(job.system, prefetcher).run(trace)


def _run_timing(job: SimJob, trace: TraceLike) -> Any:
    # one shared walk: the driver classifies each access and feeds the
    # incremental timing model in the same pass (no service list)
    prefetcher = build_prefetcher(job.prefetcher, job.workload)
    model = timing_model_for_job(job)
    SimulationDriver(job.system, prefetcher, service_consumer=model).run(
        trace
    )
    return model.finalize()


def _run_analysis(job: SimJob, trace: TraceLike) -> Any:
    return analysis_for_job(job).consume(trace)


_EXECUTORS: Dict[str, Callable[[SimJob, TraceLike], Any]] = {
    KIND_COVERAGE: _run_coverage,
    KIND_TIMING: _run_timing,
    KIND_JOINT: _run_analysis,
    KIND_REPETITION: _run_analysis,
    KIND_CORRELATION: _run_analysis,
}


def execute_job(
    job: SimJob,
    materialize: Optional[bool] = None,
    trace_store: Optional["TraceStore"] = None,
    attempt: int = 1,
) -> Any:
    """Run one job to completion and return its result dataclass.

    Args:
        job: the simulation/analysis description to execute.
        materialize: compatibility flag — True walks a memoized in-memory
            trace instead of a streaming source; None (default) defers to
            the ``REPRO_MATERIALIZE`` environment variable.
        trace_store: when given (and not materializing), the job's trace
            is replayed from — or recorded into — this on-disk store
            instead of being regenerated.
        attempt: 1-based attempt number (retry ladder); folded into the
            fault-injection draw so a retried job re-rolls its faults.

    Returns:
        The kind-specific result dataclass; bit-identical across all
        trace modes, serial/parallel execution and cache round-trips.

    A mid-walk :class:`~repro.tracestore.TraceFormatError` from a store
    replay (a corrupt or truncated entry caught by the codec's CRC) is
    *not* handled here — callers recover by quarantining the entry and
    retrying, at which point the store regenerates (see
    ``execute_job_recovering``).
    """
    if materialize is None:
        materialize = default_materialize()
    maybe_fail_job(job.job_hash, attempt)
    return _EXECUTORS[job.kind](job, job_trace(job, materialize, trace_store))


def execute_job_recovering(
    job: SimJob,
    materialize: Optional[bool] = None,
    trace_store: Optional["TraceStore"] = None,
    attempt: int = 1,
) -> Any:
    """:func:`execute_job` with the replay→regeneration fallback wired.

    When execution fails and the store entry the job replayed does not
    verify — damage surfaces either as a
    :class:`~repro.tracestore.TraceFormatError` from the codec CRC or
    as the consumer choking on a garbage decoded access — the damaged
    entry is quarantined (``quarantine/`` + reason file, accounted on
    the store's stats) and the job is re-executed; the store then
    records a fresh trace during the retry walk. One fallback only — a
    failure with a verified-clean (or absent) entry is the job's own
    and propagates to the caller's retry ladder.
    """
    if trace_store is None:
        return execute_job(job, materialize, None, attempt)
    try:
        return execute_job(job, materialize, trace_store, attempt)
    except Exception as error:
        damaged = trace_store.quarantine_if_damaged(
            job.trace_key, f"replay failed: {error}"
        )
        # a racing recoverer may have already quarantined (and cleanly
        # re-recorded) the damaged entry this walk read — the evidence
        # in quarantine/ still licenses one retry
        if not damaged and not trace_store.was_quarantined(job.trace_key):
            raise
        trace_store.stats.replay_fallbacks += 1
        return execute_job(job, materialize, trace_store, attempt)


def execute_job_with_hash(
    job: SimJob, materialize: Optional[bool] = None
) -> "tuple[str, Any]":
    """Pool-friendly wrapper: pairs the result with the job's hash."""
    return job.job_hash, execute_job(job, materialize)


def execute_job_for_pool(
    job: SimJob,
    materialize: Optional[bool] = None,
    trace_store_dir: Optional[Union[str, Path]] = None,
    attempt: int = 1,
) -> Tuple[str, Any, Dict[str, int]]:
    """Worker-side entry: result plus the trace-plane accounting delta.

    Opens a per-call :class:`TraceStore` handle when a directory is
    given, so its stats are exactly this job's replay/recording work;
    the parent engine folds the returned dict into its
    :class:`~repro.engine.engine.EngineStats`. Store-replay corruption
    is recovered in-worker (quarantine + regenerate, reported through
    the stats delta); other failures propagate to the parent's retry
    supervisor.

    With telemetry on, the dict additionally carries a ``"telemetry"``
    key — the worker's phase-timer delta plus a span self-report
    (wall/CPU time, store hit/miss, bytes replayed) — which
    the parent pops before folding the trace counters; the tuple shape
    itself never changes.
    """
    if materialize is None:
        materialize = default_materialize()
    store = None
    if trace_store_dir is not None and not materialize:
        from repro.tracestore import TraceStore

        store = TraceStore(trace_store_dir)
    telemetry = telemetry_enabled()
    if telemetry:
        phase_before = process_registry().snapshot()
        wall0, cpu0 = time.perf_counter(), time.process_time()
    result = execute_job_recovering(job, materialize, store, attempt)
    if store is not None:
        stats = store.stats.as_dict()
    elif materialize:
        stats = {}
    else:
        stats = {"generated": 1}
    if telemetry:
        span = {
            "worker": f"worker-{os.getpid()}",
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
        }
        if store is not None:
            span["store"] = "hit" if stats.get("hits") else "miss"
            span["bytes_replayed"] = stats.get("bytes_replayed", 0)
            if stats.get("replay_fallbacks"):
                span["fallback"] = "replay->regenerate"
        stats = dict(stats)
        stats["telemetry"] = {
            "metrics": process_registry().delta_since(phase_before),
            "span": span,
        }
    return job.job_hash, result, stats


def record_trace_for_pool(
    trace_store_dir: Union[str, Path], key: "tuple[str, int, int]"
) -> Dict[str, int]:
    """Worker-side trace recording: generate ``key`` into the store.

    Lets a cold parallel run record its distinct trace keys across the
    pool instead of one after another in the parent; returns the
    accounting delta (idempotent — a key another worker already
    published costs nothing and reports nothing).
    """
    from repro.tracestore import TraceStore

    store = TraceStore(trace_store_dir)
    store.record(tuple(key))
    return store.stats.as_dict()
