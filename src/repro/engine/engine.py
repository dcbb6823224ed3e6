"""The execution engine: runs a job graph serially or across processes.

The engine is the single place simulations happen. It takes a
deduplicated :class:`JobGraph`, satisfies what it can from the on-disk
:class:`ResultCache`, executes the remainder — inline, or fanned out over
a ``ProcessPoolExecutor`` when ``jobs > 1`` — and returns a
:class:`ResultMap` from job (hash) to result. ``stats`` counts scheduled
vs deduplicated vs cache-satisfied vs executed jobs so callers can
surface exactly how much work a run performed (a fully cached invocation
reports ``executed=0``).

Trace generation is scheduled as a shared resource (the *trace plane*):

* **Serial** runs group pending jobs by
  :attr:`~repro.engine.job.SimJob.trace_key` and pump one trace walk
  through every consumer in the group (:mod:`repro.engine.fanout`) — a
  sweep of N jobs over one key performs exactly one generation pass.
* With a :class:`~repro.tracestore.TraceStore` attached
  (``trace_store=DIR`` / ``--trace-store``), that one pass is also
  recorded to disk, and **parallel** workers replay the recorded trace
  instead of regenerating it per job — at most one generation plus N
  replays for N jobs over one key, across any number of invocations.

Every mode walks a trace the same way: chunk-at-a-time through
:func:`~repro.kernels.prepass.iter_trace_chunks`, each consumer's
``update_block`` driving the per-access ``step`` closures (see
:mod:`repro.engine.fanout`).

Execution is **fault-tolerant** (:mod:`repro.engine.faults`): every job
runs under a :class:`RetryPolicy` (attempts, deterministic-jitter
backoff, per-job wall-clock timeout), a dead worker breaks only the
jobs that were in flight (the pool is respawned and they are requeued;
finished results are kept), corrupt trace/cache entries are quarantined
and regenerated, and each recovery has an explicit degradation ladder:
replay → regeneration, fan-out group → per-job isolation, parallel →
serial. A job that exhausts its retries surfaces as a structured
:class:`~repro.engine.faults.JobFailure` in the :class:`ResultMap`
(``strict=True`` raises :class:`~repro.engine.faults.JobExecutionError`
instead); everything else keeps running.

Results are bit-identical across every mode — including runs degraded
by injected or real faults; only the accounting in :class:`EngineStats`
differs.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.engine.cache import ResultCache
from repro.engine.exec import (
    default_materialize,
    execute_job,
    execute_job_for_pool,
    record_trace_for_pool,
)
# module-level name: perfbench/layers.py wraps engine.run_group
from repro.engine.fanout import run_group
from repro.engine.faultinject import active_plan, maybe_kill_run
from repro.engine.faults import (
    AttemptLog,
    JobExecutionError,
    JobFailure,
    RetryPolicy,
    RunInterrupted,
)
from repro.engine.graph import JobGraph
from repro.engine.job import SimJob
from repro.telemetry import MetricsRegistry, RunTelemetry, process_registry
from repro.tracestore import TraceStore
from repro.workloads.registry import stream_workload


#: the legacy stat names, in their historical (display) order
_STAT_FIELDS = (
    "requested", "deduplicated", "cache_hits", "executed",
    "generation_passes", "passes_saved", "store_hits", "store_misses",
    "bytes_replayed", "retries", "requeued", "timeouts", "pool_respawns",
    "quarantined", "cache_corrupt", "replay_fallbacks",
    "isolation_fallbacks", "serial_fallbacks", "failures",
)

#: as_dict() keys that are always 0; perfbench/checks.py's ENGINE_COUNTS
#: reads them
_ZERO_FIELDS = ("broadcast_waves", "broadcast_chunks", "bytes_shared")


class EngineStats:
    """Work accounting for one engine (accumulated across run() calls).

    Beyond the job counters, the trace-plane counters expose how much
    generation work the fan-out scheduler and trace store avoided:
    ``generation_passes`` counts actual workload-generator walks,
    ``passes_saved`` counts executed jobs that did *not* need their own
    generation pass (fed by fan-out or a store replay), and
    ``store_hits`` / ``store_misses`` / ``bytes_replayed`` account the
    trace store itself. The materialize compatibility mode bypasses the
    trace plane, so these stay zero there.

    The fault-plane counters account recovery work: ``retries`` (extra
    attempts scheduled after a failure), ``requeued`` (in-flight jobs
    resubmitted after a pool death or timeout kill through no fault of
    their own), ``timeouts``, ``pool_respawns``, ``quarantined``
    (damaged trace entries and cache shards moved aside),
    ``cache_corrupt`` (corrupt cache shards detected),
    ``replay_fallbacks`` (store replays degraded to regeneration),
    ``isolation_fallbacks`` (fan-out groups degraded to per-job
    execution), ``serial_fallbacks`` (parallel batches degraded to the
    serial path), and ``failures`` (jobs that exhausted every retry).
    A clean run keeps all of them at zero.

    Since the telemetry plane landed, this class is a **view** over a
    :class:`~repro.telemetry.MetricsRegistry` rather than its own
    counter soup: each stat reads/writes the ``engine.<name>`` counter
    of the backing registry (the engine's :attr:`~Engine.telemetry`
    registry), so the legacy one-liner and ``metrics.json`` can never
    disagree. The attribute API — read, assign, ``+=`` — is unchanged.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 **initial: int) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        for name, value in initial.items():
            if name not in _STAT_FIELDS:
                raise TypeError(f"unknown engine stat {name!r}")
            setattr(self, name, value)

    def as_dict(self) -> Dict[str, int]:
        values = {name: getattr(self, name) for name in _STAT_FIELDS}
        values.update(dict.fromkeys(_ZERO_FIELDS, 0))
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in _STAT_FIELDS
        )
        return f"EngineStats({fields})"

    def absorb_trace_stats(self, delta: Dict[str, int]) -> None:
        """Fold a trace-store accounting delta (worker or store handle) in."""
        self.store_hits += delta.get("hits", 0)
        self.store_misses += delta.get("misses", 0)
        self.generation_passes += delta.get("generated", 0)
        self.bytes_replayed += delta.get("bytes_replayed", 0)
        self.quarantined += delta.get("quarantined", 0)
        self.replay_fallbacks += delta.get("replay_fallbacks", 0)

    @property
    def degraded(self) -> bool:
        """True when any recovery path fired (the exit-code-1 signal)."""
        return bool(
            self.retries or self.requeued or self.timeouts
            or self.pool_respawns or self.quarantined or self.cache_corrupt
            or self.replay_fallbacks or self.isolation_fallbacks
            or self.serial_fallbacks or self.failures
        )

    def format(self) -> str:
        unique = self.requested - self.deduplicated
        text = (
            f"engine: {self.requested} jobs requested, "
            f"{self.deduplicated} deduplicated, {unique} unique, "
            f"{self.cache_hits} cache hits, {self.executed} simulated; "
            f"traces: {self.generation_passes} generated, "
            f"{self.passes_saved} passes saved"
        )
        if self.store_hits or self.store_misses or self.bytes_replayed:
            text += (
                f", store {self.store_hits} hits / "
                f"{self.store_misses} misses, "
                f"{self.bytes_replayed} bytes replayed"
            )
        if self.degraded:
            parts = [
                f"{value} {name}"
                for name, value in (
                    ("retries", self.retries),
                    ("requeued", self.requeued),
                    ("timeouts", self.timeouts),
                    ("pool respawns", self.pool_respawns),
                    ("quarantined", self.quarantined),
                    ("corrupt cache entries", self.cache_corrupt),
                    ("replay fallbacks", self.replay_fallbacks),
                    ("isolation fallbacks", self.isolation_fallbacks),
                    ("serial fallbacks", self.serial_fallbacks),
                    ("failed jobs", self.failures),
                )
                if value
            ]
            text += "; faults: " + ", ".join(parts)
        return text


def _stat_view(name: str) -> property:
    """An int attribute backed by the ``engine.<name>`` counter."""
    key = "engine." + name

    def fget(self: EngineStats) -> int:
        return int(self.registry.counter(key))

    def fset(self: EngineStats, value: int) -> None:
        self.registry.set_counter(key, value)

    return property(fget, fset)


for _name in _STAT_FIELDS:
    setattr(EngineStats, _name, _stat_view(_name))
del _name


class ResultMap(Dict[str, Any]):
    """Results keyed by job hash; also indexable directly by job.

    A value is either the job's result dataclass or — when the job
    exhausted its retries under the default non-strict policy — a
    structured :class:`~repro.engine.faults.JobFailure`; use
    :meth:`failures` to enumerate the latter.
    """

    def __getitem__(self, key: Union[str, SimJob]) -> Any:
        if isinstance(key, SimJob):
            key = key.job_hash
        return super().__getitem__(key)

    def get(self, key: Union[str, SimJob], default: Any = None) -> Any:
        if isinstance(key, SimJob):
            key = key.job_hash
        return super().get(key, default)

    def failures(self) -> List[JobFailure]:
        """Every job that degraded to a structured failure, if any."""
        return [v for v in self.values() if isinstance(v, JobFailure)]


class Engine:
    """Executes job graphs with optional parallelism and disk caching.

    Args:
        jobs: worker processes for simulation jobs (1 = serial/inline).
        cache_dir: on-disk result cache directory, or None to disable.
        use_cache: set False to neither read nor write ``cache_dir``.
        materialize: compatibility flag — True generates each job's trace
            into memory (per-process memo) instead of streaming it;
            results are bit-identical either way, but streaming keeps
            peak memory independent of trace length. None defers to the
            ``REPRO_MATERIALIZE`` environment variable.
        trace_store: directory (or :class:`TraceStore`) for the shared
            trace plane — traces are recorded once and replayed by every
            job and worker that shares the trace key. None keeps traces
            in-process only (serial fan-out still shares walks).
        retry: the :class:`~repro.engine.faults.RetryPolicy` failing
            jobs run under (attempts, backoff, per-job timeout). None
            uses the default policy (3 attempts, no timeout);
            ``RetryPolicy.none()`` restores fail-fast single attempts.
        strict: when True, a job that exhausts its retries raises
            :class:`~repro.engine.faults.JobExecutionError` instead of
            degrading to a :class:`~repro.engine.faults.JobFailure` in
            the result map.
        journal: an open :class:`~repro.engine.journal.RunJournal` to
            record job lifecycle events into (scheduled / attempts /
            completed / failed). Completions are journaled only *after*
            the result is durably in the cache, so a journaled-complete
            job is always recoverable on ``--resume``. None disables
            journaling (the engine behaves exactly as before).
        interrupt: a ``threading.Event`` polled at every job dispatch;
            once set, the engine stops dispatching, cancels in-flight
            futures, and raises
            :class:`~repro.engine.faults.RunInterrupted` — the
            graceful-shutdown hook. None disables the check.

    An engine is a context manager; leaving the ``with`` block closes
    the result cache's sqlite catalog handle deterministically.
    """

    #: pool deaths tolerated per batch before degrading to serial
    MAX_POOL_RESPAWNS = 3

    #: fixed; perfbench/run.py records it in each sweep's conditions
    kernel = "vector"
    #: fixed; perfbench/run.py records it in each sweep's conditions
    broadcast = "off"

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        materialize: Optional[bool] = None,
        trace_store: Optional[Union[str, Path, TraceStore]] = None,
        retry: Optional[RetryPolicy] = None,
        strict: bool = False,
        journal: Optional[Any] = None,
        interrupt: Optional[Any] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if (cache_dir and use_cache) else None
        )
        self.materialize = materialize
        if trace_store is not None and not isinstance(trace_store, TraceStore):
            trace_store = TraceStore(trace_store)
        self.trace_store: Optional[TraceStore] = trace_store
        self.retry = retry if retry is not None else RetryPolicy()
        self.strict = strict
        self.journal = journal
        self.interrupt = interrupt
        self.telemetry = RunTelemetry()
        self.stats = EngineStats(self.telemetry.registry)
        self.telemetry.registry.set_gauge("engine.jobs", self.jobs)

    def run(self, graph: JobGraph) -> ResultMap:
        """Execute every job in ``graph``.

        Args:
            graph: the deduplicated set of jobs to satisfy.

        Returns:
            A :class:`ResultMap` from job hash (or job) to result,
            covering every job in the graph. Under the default
            non-strict policy a job that exhausted its retries maps to
            a :class:`~repro.engine.faults.JobFailure` (never cached);
            with ``strict=True`` that raises instead.
        """
        self.stats.requested += graph.requested
        self.stats.deduplicated += graph.deduplicated
        cache_before = self.cache.stats.as_dict() if self.cache else None
        journal = self.journal
        telemetry = self.telemetry
        # phase timers accumulate in the process-global registry (a
        # forked worker inherits these counts, hence delta-folding
        # everywhere); snapshot so this run folds only its own serial
        # phase time
        phase_before = (
            process_registry().snapshot() if telemetry.enabled else None
        )
        results = ResultMap()
        pending = []
        for job in graph:
            if journal is not None:
                journal.job_scheduled(job)
            telemetry.job_scheduled(job)
            cached = self.cache.load(job) if self.cache else None
            if cached is not None:
                self.stats.cache_hits += 1
                telemetry.job_cached(job)
                results[job.job_hash] = cached
                if journal is not None:
                    journal.job_completed(
                        job, shard=self.cache.path_for(job), source="cache"
                    )
            else:
                pending.append(job)
        try:
            if pending:
                for job, result in self._execute(pending):
                    results[job.job_hash] = result
                    telemetry.job_finished(
                        job, ok=not isinstance(result, JobFailure)
                    )
                    if isinstance(result, JobFailure):
                        if journal is not None:
                            journal.job_failed(result)
                        continue  # failures are never cached
                    self.stats.executed += 1
                    shard = None
                    if self.cache is not None:
                        shard = self.cache.store(job, result)
                    if journal is not None:
                        # write-ahead commit record: only after the
                        # result is durably on disk (or caching is off
                        # and there is nothing to recover from)
                        journal.job_completed(job, shard=shard)
        finally:
            if phase_before is not None:
                telemetry.registry.merge(
                    process_registry().delta_since(phase_before)
                )
            if self.cache is not None:
                after = self.cache.stats.as_dict()
                self.stats.cache_corrupt += (
                    after["corrupt"] - cache_before["corrupt"]
                )
                self.stats.quarantined += (
                    after["quarantined"] - cache_before["quarantined"]
                )
        return results

    def close(self) -> None:
        """Release held OS handles (the cache's sqlite catalog)."""
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_interrupt(self) -> None:
        """Raise :class:`RunInterrupted` when graceful shutdown is
        requested — called wherever the engine is about to start (or
        restart) work, so an interrupt takes effect at the next job
        boundary rather than mid-simulation."""
        if self.interrupt is not None and self.interrupt.is_set():
            journal = self.journal
            completed = journal.jobs_completed if journal is not None else 0
            scheduled = journal.jobs_scheduled if journal is not None else 0
            raise RunInterrupted(completed, max(0, scheduled - completed))

    def _dispatch_gate(self) -> None:
        """The per-job-dispatch checkpoint: the deterministic
        ``kill_at_job`` injection point plus the interrupt poll. Called
        exactly once per first dispatch of a job, so the injector's
        dispatch index is stable across runs."""
        maybe_kill_run()
        self._check_interrupt()

    def _execute(self, pending: "list[SimJob]") -> Iterable["tuple[SimJob, Any]"]:
        materialize = (
            self.materialize
            if self.materialize is not None
            else default_materialize()
        )
        if self.jobs > 1 and len(pending) > 1:
            yield from self._execute_parallel(pending, materialize)
        else:
            yield from self._execute_serial(pending, materialize)

    # -- serial: fan one trace walk out to every job sharing its key -------

    def _execute_serial(
        self, pending: "list[SimJob]", materialize: bool
    ) -> Iterable["tuple[SimJob, Any]"]:
        if materialize:
            # compatibility mode: the per-process trace memo already
            # shares generation; bypass the trace plane entirely
            for job in pending:
                self._dispatch_gate()
                yield job, self._solo_with_retries(job, True)
            return
        for key, group in _grouped_by_trace_key(pending).items():
            yield from self._run_group_resilient(key, group)

    def _run_group_resilient(
        self, key, group: "list[SimJob]"
    ) -> Iterable["tuple[SimJob, Any]"]:
        """One fan-out group, with the serial degradation ladder wired.

        Step 1 — replay → regeneration: when the shared walk fails and
        the store entry it replayed does not verify (codec CRC, record
        decode — damage shows up either as a
        :class:`TraceFormatError` or as a consumer choking on a garbage
        access), the entry is quarantined and the group rerun with a
        fresh generation pass (which re-records it).

        Step 2 — fan-out → isolation: a failure with a verified-clean
        (or absent) trace cannot be blamed on the data, and the shared
        walk cannot attribute it to one consumer — the group degrades to
        per-job solo execution under the retry ladder, so one bad job
        cannot sink its trace-key peers.
        """
        stats = self.stats
        store = self.trace_store
        journal = self.journal
        for job in group:
            # one dispatch per job even though the group shares a walk —
            # keeps kill_at_job indices meaningful across modes
            self._dispatch_gate()
            if journal is not None:
                journal.attempt_started(job.job_hash, 1)
            self.telemetry.attempt_started(job.job_hash, 1)
        for _ in range(2):
            accesses, generated = self._serial_pass(key)
            try:
                results = run_group(group, accesses)
            except Exception as error:
                if store is not None and store.quarantine_if_damaged(
                    key, f"replay failed mid-walk: {error}"
                ):
                    stats.quarantined += 1
                    stats.replay_fallbacks += 1
                    continue  # the rerun regenerates (entry is gone)
                break  # job-level failure: isolate below
            stats.generation_passes += generated
            stats.passes_saved += len(group) - generated
            yield from results
            return
        stats.isolation_fallbacks += 1
        for job in group:
            yield job, self._solo_with_retries(job, False)

    def _solo_with_retries(
        self,
        job: SimJob,
        materialize: bool,
        log: Optional[AttemptLog] = None,
    ) -> Any:
        """Execute one job inline under the retry policy.

        Returns the job's result, or a :class:`JobFailure` once the
        policy's attempts are exhausted (raises
        :class:`JobExecutionError` under ``strict``). A corrupt store
        replay additionally quarantines its entry so the retry
        regenerates instead of replaying the same damage.
        """
        log = log or AttemptLog(job.job_hash, job.label())
        store = self.trace_store if not materialize else None
        policy = self.retry
        journal = self.journal
        while True:
            self._check_interrupt()
            attempt = log.attempts + 1
            if journal is not None:
                journal.attempt_started(job.job_hash, attempt)
            self.telemetry.attempt_started(job.job_hash, attempt)
            before = store.stats.as_dict() if store is not None else None
            try:
                result = execute_job(job, materialize, store, attempt)
            except Exception as error:
                if store is not None and store.quarantine_if_damaged(
                    job.trace_key, f"replay failed: {error}"
                ):
                    # the retry regenerates instead of replaying the
                    # same damage
                    self.stats.quarantined += 1
                    self.stats.replay_fallbacks += 1
                log.record(error)
                if journal is not None:
                    journal.attempt_failed(
                        job.job_hash, log.attempts,
                        f"{type(error).__name__}: {error}",
                    )
                self.telemetry.attempt_finished(
                    job.job_hash, "failed",
                    error=f"{type(error).__name__}: {error}",
                )
                if log.attempts >= policy.attempts:
                    return self._give_up(log)
                self.stats.retries += 1
                policy.sleep_before_retry(job.job_hash, log.attempts)
                continue
            if store is not None:
                delta = _stats_delta(store.stats.as_dict(), before)
                self.stats.absorb_trace_stats(delta)
                self.stats.passes_saved += 1 - delta.get("generated", 0)
            elif not materialize:
                self.stats.generation_passes += 1
            return result

    def _give_up(self, log: AttemptLog) -> JobFailure:
        """Exhausted retries: surface (non-strict) or raise (strict)."""
        failure = log.failure()
        self.stats.failures += 1
        if self.strict:
            raise JobExecutionError(failure)
        print(f"[engine: {failure.summary()}]", file=sys.stderr)
        return failure

    def _serial_pass(self, key) -> "tuple[Iterable, int]":
        """One access pass for ``key`` plus its generation-pass cost.

        With a store: replay a recorded entry (cost 0) or record during
        the walk (cost 1, and the entry is published for later runs and
        workers). Without: a plain generation pass (cost 1).
        """
        store = self.trace_store
        if store is None:
            return stream_workload(*key), 1
        before = store.stats.as_dict()
        source = store.source(key)
        generated = 0 if store.stats.hits > before["hits"] else 1
        # fold replay/recording accounting in after the walk completes,
        # so bytes_replayed from the lazy iteration are captured
        accounted = _AccountedSource(
            source, store, before, self.stats, generated
        )
        return accounted, generated

    # -- parallel: per-job futures on a supervised pool --------------------

    def _execute_parallel(
        self, pending: "list[SimJob]", materialize: bool
    ) -> Iterable["tuple[SimJob, Any]"]:
        # group-by-trace scheduling: keep jobs that share a trace
        # adjacent so reused pool workers hit their trace memo
        # (materialize mode) or the store's OS page cache (replay)
        ordered = sorted(pending, key=lambda j: (j.trace_key, j.job_hash))
        store = self.trace_store
        store_dir: Optional[str] = None
        if store is not None and not materialize:
            store_dir = str(store.directory)
        supervisor = _PoolSupervisor(
            self, ordered, min(self.jobs, len(ordered)), materialize,
            store_dir,
        )
        yield from supervisor.run()

    def report(self, stream=sys.stderr) -> None:
        print(f"[{self.stats.format()}]", file=stream)


class _PoolSupervisor:
    """Drives a batch of jobs through a (respawnable) process pool.

    Each job is its own future, tracked with an attempt log and an
    optional wall-clock deadline. The supervisor recovers from the three
    parallel failure modes:

    * a **job exception** in a worker — charged to that job's retry
      budget; the job is requeued after its deterministic backoff;
    * a **dead worker** (``BrokenProcessPool``) — the pool is respawned
      and every in-flight job requeued. Completed results are already
      out; nothing is recomputed. When the active fault-injection plan
      can name the crashing job(s), only those are charged an attempt —
      innocents are requeued for free;
    * a **stalled job** (policy timeout exceeded) — the pool is killed
      and respawned; the stalled job is charged a timeout attempt, the
      other in-flight jobs are requeued for free.

    After :attr:`Engine.MAX_POOL_RESPAWNS` pool deaths the batch
    degrades to the serial path (the last rung of the ladder) instead
    of thrashing pool startup forever.
    """

    def __init__(
        self,
        engine: Engine,
        jobs: "list[SimJob]",
        workers: int,
        materialize: bool,
        store_dir: Optional[str],
    ) -> None:
        self.engine = engine
        self.stats = engine.stats
        self.policy = engine.retry
        self.jobs = jobs
        self.workers = workers
        self.materialize = materialize
        self.store_dir = store_dir
        self.pool: Optional[ProcessPoolExecutor] = None
        self.respawns = 0

    # -- pool lifecycle ----------------------------------------------------

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _kill_pool(self) -> None:
        """Hard-stop the pool: terminate workers, abandon futures."""
        if self.pool is None:
            return
        for process in list(getattr(self.pool, "_processes", {}).values()):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = None

    def _respawn(self) -> None:
        self.respawns += 1
        self.stats.pool_respawns += 1
        self._kill_pool()
        if self.respawns <= Engine.MAX_POOL_RESPAWNS:
            self.pool = self._spawn()

    # -- main loop ---------------------------------------------------------

    def run(self) -> Iterable["tuple[SimJob, Any]"]:
        queue: "deque[tuple[SimJob, AttemptLog, float]]" = deque(
            (job, AttemptLog(job.job_hash, job.label()), 0.0)
            for job in self.jobs
        )
        in_flight: "dict[Any, tuple[SimJob, AttemptLog, Optional[float]]]" = {}
        self.pool = self._spawn()
        try:
            yield from self._record_missing()
            while queue or in_flight:
                self.engine._check_interrupt()
                if self.pool is None:  # respawn budget exhausted
                    yield from self._serial_remainder(queue, in_flight)
                    return
                broken = self._submit_ready(queue, in_flight)
                victims: "list[tuple[SimJob, AttemptLog]]" = []
                if not broken:
                    if not in_flight:
                        _sleep_until_ready(queue)
                        continue
                    done, _ = wait(
                        set(in_flight),
                        timeout=self._wait_budget(queue, in_flight),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        job, log, _ = in_flight.pop(future)
                        try:
                            _, result, delta = future.result()
                        except BrokenProcessPool:
                            broken = True
                            victims.append((job, log))
                            continue
                        except Exception as error:
                            yield from self._charge(job, log, error, queue)
                            continue
                        self.engine.telemetry.absorb_attempt(
                            job.job_hash, delta.pop("telemetry", None) or {}
                        )
                        self.stats.absorb_trace_stats(delta)
                        if not self.materialize:
                            self.stats.passes_saved += 1 - delta.get(
                                "generated", 0
                            )
                        yield job, result
                if broken:
                    # jobs still in flight share the broken pool's fate:
                    # their futures raise the same BrokenProcessPool
                    victims.extend(
                        (job, log) for job, log, _ in in_flight.values()
                    )
                    in_flight.clear()
                    yield from self._handle_breakage(victims, queue)
                else:
                    yield from self._handle_timeouts(queue, in_flight)
        finally:
            if self.pool is not None:
                self.pool.shutdown(wait=False, cancel_futures=True)

    def _submit_ready(self, queue, in_flight) -> bool:
        """Submit every queue entry whose backoff has elapsed.

        Returns True when the pool turned out to be broken mid-submit
        (the entry is requeued and the caller runs breakage recovery).
        """
        now = time.monotonic()
        journal = self.engine.journal
        for _ in range(len(queue)):
            job, log, ready_at = queue.popleft()
            if ready_at > now:
                queue.append((job, log, ready_at))
                continue
            if log.attempts == 0:
                # first dispatch only: retries are not new dispatches,
                # so kill_at_job indices match the serial schedule
                self.engine._dispatch_gate()
            if journal is not None:
                journal.attempt_started(job.job_hash, log.attempts + 1)
            self.engine.telemetry.attempt_started(
                job.job_hash, log.attempts + 1, worker="pool"
            )
            try:
                future = self.pool.submit(
                    execute_job_for_pool,
                    job,
                    materialize=self.engine.materialize,
                    trace_store_dir=self.store_dir,
                    attempt=log.attempts + 1,
                )
            except (BrokenProcessPool, RuntimeError):
                queue.append((job, log, ready_at))
                return True
            deadline = (
                now + self.policy.timeout
                if self.policy.timeout is not None
                else None
            )
            in_flight[future] = (job, log, deadline)
        return False

    def _wait_budget(self, queue, in_flight) -> Optional[float]:
        """Seconds to block in wait(): until the nearest deadline or
        backoff expiry, or indefinitely when neither is pending. With a
        graceful-shutdown event attached, the wait is bounded (0.3s) so
        a signal arriving mid-wait is noticed promptly —
        ``concurrent.futures.wait`` would otherwise sleep through it."""
        now = time.monotonic()
        marks = [
            deadline for _, _, deadline in in_flight.values()
            if deadline is not None
        ]
        marks.extend(ready_at for _, _, ready_at in queue if ready_at > now)
        budget = max(0.0, min(marks) - now) if marks else None
        if self.engine.interrupt is not None:
            budget = 0.3 if budget is None else min(budget, 0.3)
        return budget

    def _charge(
        self, job: SimJob, log: AttemptLog, error: BaseException, queue
    ) -> Iterable["tuple[SimJob, Any]"]:
        """Record a failed attempt; requeue with backoff or give up."""
        log.record(error)
        if self.engine.journal is not None:
            self.engine.journal.attempt_failed(
                job.job_hash, log.attempts,
                f"{type(error).__name__}: {error}",
            )
        self.engine.telemetry.attempt_finished(
            job.job_hash, "failed", error=f"{type(error).__name__}: {error}"
        )
        if log.attempts >= self.policy.attempts:
            yield job, self.engine._give_up(log)
            return
        self.stats.retries += 1
        ready_at = time.monotonic() + self.policy.backoff_for(
            job.job_hash, log.attempts
        )
        queue.append((job, log, ready_at))

    def _handle_breakage(self, victims, queue) -> Iterable:
        """A worker died: respawn the pool, requeue only the lost jobs.

        Every in-flight job's future errors with ``BrokenProcessPool``
        whether or not it was the one running in the dead worker. When
        fault injection is active the parent can recompute exactly which
        draws fired and charge only the culprits' retry budgets; real
        (uninjected) crashes are unattributable, so everyone in flight
        is charged — the retry budget still bounds the damage.
        """
        culprits = self._crash_culprits(victims)
        self._respawn()
        error = BrokenProcessPool("worker process died unexpectedly")
        for job, log in victims:
            if culprits is None or job.job_hash in culprits:
                yield from self._charge(job, log, error, queue)
            else:
                self.stats.requeued += 1
                self.engine.telemetry.attempt_finished(
                    job.job_hash, "requeued"
                )
                queue.append((job, log, 0.0))

    def _crash_culprits(self, victims) -> Optional[set]:
        """Job hashes whose injected worker-crash draw fired, or None
        when injection can't attribute the death (charge everyone)."""
        plan = active_plan()
        if not plan or plan.spec("worker_crash") is None:
            return None
        return {
            job.job_hash
            for job, log in victims
            if plan.fires("worker_crash", job.job_hash, log.attempts + 1)
        }

    def _handle_timeouts(self, queue, in_flight) -> Iterable:
        """Kill and respawn the pool when an in-flight job overruns its
        wall-clock budget; the overrunner is charged a timeout attempt,
        innocent in-flight jobs are requeued for free."""
        now = time.monotonic()
        expired = [
            future
            for future, (_, _, deadline) in in_flight.items()
            if deadline is not None and deadline <= now and not future.done()
        ]
        if not expired:
            return
        victims = []
        for future in list(in_flight):
            job, log, _ = in_flight.pop(future)
            if future in expired:
                self.stats.timeouts += 1
                error = TimeoutError(
                    f"job exceeded its {self.policy.timeout:.1f}s wall-clock"
                    " budget"
                )
                yield from self._charge(job, log, error, queue)
            else:
                victims.append((job, log))
        self._respawn()
        for job, log in victims:
            self.stats.requeued += 1
            self.engine.telemetry.attempt_finished(job.job_hash, "requeued")
            queue.append((job, log, 0.0))

    def _serial_remainder(self, queue, in_flight) -> Iterable:
        """The ladder's last rung: the pool died too often — finish the
        batch inline (serial), preserving each job's attempt log."""
        self.stats.serial_fallbacks += 1
        remainder = [(job, log) for job, log, _ in queue]
        remainder.extend((job, log) for job, log, _ in in_flight.values())
        queue.clear()
        in_flight.clear()
        for job, log in remainder:
            yield job, self.engine._solo_with_retries(
                job, self.materialize, log
            )

    def _record_missing(self) -> Iterable:
        """Pre-record each distinct missing trace exactly once, fanned
        across the pool, before any job runs — jobs then replay. Falls
        back to parent-side recording if the pool dies during it."""
        if self.store_dir is None:
            return
        store = self.engine.trace_store
        before = store.stats.as_dict()
        missing = [
            key
            for key in OrderedDict.fromkeys(job.trace_key for job in self.jobs)
            if not store.has(key)
        ]
        # has() may have quarantined structurally damaged entries
        self.stats.absorb_trace_stats(
            _stats_delta(store.stats.as_dict(), before)
        )
        if not missing:
            return
        record = partial(record_trace_for_pool, self.store_dir)
        try:
            for delta in self.pool.map(record, missing):
                self.stats.absorb_trace_stats(delta)
        except BrokenProcessPool:
            self._respawn()
            before = store.stats.as_dict()
            for key in missing:
                store.record(key)  # idempotent: skips published entries
            self.stats.absorb_trace_stats(
                _stats_delta(store.stats.as_dict(), before)
            )
        return
        yield  # pragma: no cover - generator-shaped for uniform caller


def _sleep_until_ready(queue) -> None:
    """Nothing in flight, everything backing off: sleep to the nearest
    ready_at so the supervisor doesn't busy-wait."""
    now = time.monotonic()
    nearest = min(ready_at for _, _, ready_at in queue)
    if nearest > now:
        time.sleep(min(nearest - now, 1.0))


def _grouped_by_trace_key(
    pending: "list[SimJob]",
) -> "OrderedDict[tuple, List[SimJob]]":
    groups: "OrderedDict[tuple, List[SimJob]]" = OrderedDict()
    for job in pending:
        groups.setdefault(job.trace_key, []).append(job)
    return groups


def _stats_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in after}


class _AccountedSource:
    """A single-pass chunked view of a trace-store source that folds the
    store's accounting delta (minus the generation passes the engine
    already counted) into ``stats`` when the walk completes.

    A recorded entry decodes whole stored chunks columnar; a
    record-during-walk generation pass is batched generically with the
    tee side effects intact.
    """

    __slots__ = ("_source", "_store", "_before", "_stats", "_generated")

    def __init__(self, source, store: TraceStore, before: Dict[str, int],
                 stats: EngineStats, generated: int) -> None:
        self._source = source
        self._store = store
        self._before = before
        self._stats = stats
        self._generated = generated

    def _fold(self) -> None:
        delta = _stats_delta(self._store.stats.as_dict(), self._before)
        delta["generated"] -= self._generated
        self._stats.absorb_trace_stats(delta)

    def iter_chunks(self):
        yield from self._source.iter_chunks()
        self._fold()
