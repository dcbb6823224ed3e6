"""Deterministic fault injection: exercise every recovery path on demand.

Enabled by the ``REPRO_FAULT_INJECT`` environment variable (inherited by
pool workers), whose value is a comma-separated spec string::

    REPRO_FAULT_INJECT="worker_crash:0.1@seed=7,trace_corrupt:1"

Each clause is ``kind[:rate][@param=value[@param=value…]]`` — ``rate``
is the per-opportunity firing probability (default 1). Supported kinds:

``worker_crash``
    A pool worker calls ``os._exit`` before executing the job (the
    parent sees a ``BrokenProcessPool``); in serial mode the same draw
    raises :class:`InjectedCrash` so serial and parallel runs exercise
    their respective recovery paths on the *same* jobs.
``job_fail``
    Job execution raises :class:`InjectedFault` (a clean exception, no
    process damage) — exercises the retry/`JobFailure` ladder.
``stall``
    Job execution sleeps ``secs`` (default 30, ``stall:0.5@secs=5``)
    before running — exercises the per-job timeout kill/requeue path.

The three execution-side kinds also accept ``@max_attempt=N``: the
fault is suppressed on attempts beyond ``N``, so
``job_fail:1@max_attempt=2`` fails every job's first two attempts and
lets the third succeed — a fully deterministic retry-ladder vector.
``trace_corrupt``
    A freshly recorded trace-store entry has payload bytes flipped on
    disk — exercises CRC rejection, quarantine, and regeneration.
``cache_corrupt``
    A freshly stored result-cache shard is truncated to garbage —
    exercises the corrupt-shard warning, quarantine, and re-execution.
``kill_at_job``
    The *parent* process dies with ``os._exit`` (no cleanup, no atexit,
    no journal sealing — a faithful SIGKILL/power-cut stand-in) the
    moment the engine dispatches its N-th job, where N is the
    ``@index=N`` parameter (1-based, default 1). Unlike the other kinds
    this one counts dispatches rather than drawing per site, so "crash
    at an arbitrary point mid-sweep" is exactly reproducible — the
    vector behind the crash → ``--resume`` → bit-identical-parity tests.

Every decision is a pure function of ``(kind, site key, attempt,
seed)`` via a sha256 draw — no global RNG state — so an injected run is
exactly repeatable in any process and any execution order. File
corruption additionally leaves a ``<name>.faulted`` marker next to the
target so each path is damaged **at most once**: the regenerated
replacement stays clean and the run converges. A run with faults
injected therefore completes with results bit-identical to a clean run;
only the recovery counters differ (that equivalence is what
``tests/test_faults.py`` and ``benchmarks/faults_smoke.py`` assert).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.engine.faults import _unit_draw

ENV_VAR = "REPRO_FAULT_INJECT"

FAULT_KINDS = (
    "worker_crash", "job_fail", "stall", "trace_corrupt", "cache_corrupt",
    "kill_at_job",
)

#: exit status an injected worker crash dies with (diagnostic only)
CRASH_EXIT_CODE = 113

#: exit status an injected whole-process kill dies with (``kill_at_job``)
KILL_EXIT_CODE = 86

#: dispatch counter backing ``kill_at_job`` (parent process only)
_DISPATCHES = 0


class InjectedFault(RuntimeError):
    """A clean injected job failure (the retry ladder's test vector)."""


class InjectedCrash(InjectedFault):
    """A serial-mode stand-in for a worker crash."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed clause of the injection spec string."""

    kind: str
    rate: float = 1.0
    params: Tuple[Tuple[str, str], ...] = ()

    def param(self, name: str, default: str = "") -> str:
        for key, value in self.params:
            if key == name:
                return value
        return default


class FaultPlan:
    """The parsed spec: which faults fire, where, with what seed."""

    def __init__(self, specs: Dict[str, FaultSpec], seed: int = 0) -> None:
        self.specs = specs
        self.seed = seed

    def __bool__(self) -> bool:
        return bool(self.specs)

    def spec(self, kind: str) -> Optional[FaultSpec]:
        return self.specs.get(kind)

    def fires(self, kind: str, site: str, attempt: int = 0) -> bool:
        """Deterministically decide whether ``kind`` fires at ``site``."""
        spec = self.specs.get(kind)
        if spec is None:
            return False
        return _unit_draw(kind, site, attempt, self.seed) < spec.rate

    @staticmethod
    def parse(text: str) -> "FaultPlan":
        """Parse a spec string (raises ``ValueError`` on a bad clause)."""
        specs: Dict[str, FaultSpec] = {}
        seed = 0
        for clause in filter(None, (c.strip() for c in text.split(","))):
            head, *param_parts = clause.split("@")
            kind, _, rate_text = head.partition(":")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in {ENV_VAR} "
                    f"(choose from {FAULT_KINDS})"
                )
            try:
                rate = float(rate_text) if rate_text else 1.0
            except ValueError:
                raise ValueError(
                    f"bad rate {rate_text!r} for fault {kind!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault rate must be in [0, 1], got {rate} for {kind!r}"
                )
            params = []
            for part in param_parts:
                name, sep, value = part.partition("=")
                if not sep or not name:
                    raise ValueError(
                        f"bad fault parameter {part!r} for {kind!r} "
                        "(expected name=value)"
                    )
                if name == "seed":
                    seed = int(value)
                else:
                    params.append((name, value))
            specs[kind] = FaultSpec(kind=kind, rate=rate,
                                    params=tuple(params))
        return FaultPlan(specs, seed=seed)


_CACHED: Optional[Tuple[str, FaultPlan]] = None


def active_plan() -> FaultPlan:
    """The plan from ``REPRO_FAULT_INJECT``, re-parsed when the variable
    changes (cheap per-call check, so tests can flip it at runtime)."""
    global _CACHED, _DISPATCHES
    text = os.environ.get(ENV_VAR, "").strip()
    if _CACHED is None or _CACHED[0] != text:
        _CACHED = (text, FaultPlan.parse(text) if text else FaultPlan({}))
        _DISPATCHES = 0  # a new plan restarts the positional countdown
    return _CACHED[1]


def _in_pool_worker() -> bool:
    """True inside a ``ProcessPoolExecutor``/multiprocessing child."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


def maybe_fail_job(job_hash: str, attempt: int) -> None:
    """Execution-side injection point, called once per job attempt.

    Order: ``stall`` (sleep) first, then ``worker_crash`` (process
    death in a pool worker, :class:`InjectedCrash` serially), then
    ``job_fail``. The attempt number is folded into every draw, so a
    retried job re-rolls rather than failing forever.
    """
    plan = active_plan()
    if not plan:
        return

    def armed(kind: str) -> bool:
        if not plan.fires(kind, job_hash, attempt):
            return False
        cap = plan.spec(kind).param("max_attempt")
        return not cap or attempt <= int(cap)

    if armed("stall"):
        time.sleep(float(plan.spec("stall").param("secs", "30")))
    if armed("worker_crash"):
        if _in_pool_worker():
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(
            f"injected worker crash (job {job_hash[:12]}, attempt {attempt})"
        )
    if armed("job_fail"):
        raise InjectedFault(
            f"injected job failure (job {job_hash[:12]}, attempt {attempt})"
        )


def maybe_kill_run() -> None:
    """Whole-process kill point, called once per engine job dispatch.

    With ``kill_at_job@index=N`` active, the N-th dispatch (1-based,
    counted in the parent only — pool workers never kill the run)
    terminates the process via ``os._exit`` with
    :data:`KILL_EXIT_CODE`: no finalizers, no journal sealing, exactly
    the footprint of a SIGKILL mid-sweep. The rate field is ignored —
    this kind is positional, not probabilistic.
    """
    global _DISPATCHES
    plan = active_plan()
    spec = plan.spec("kill_at_job")
    if spec is None or _in_pool_worker():
        return
    _DISPATCHES += 1
    if _DISPATCHES == int(spec.param("index", "1")):
        sys.stderr.write(
            f"[faultinject: kill_at_job fired at dispatch {_DISPATCHES}]\n"
        )
        sys.stderr.flush()
        # take live pool workers down too — a real SIGKILL of the run
        # kills the whole process group, and orphaned workers would
        # otherwise linger forever holding inherited pipe fds (hanging
        # any harness that reads our stdout/stderr to EOF)
        import multiprocessing

        for child in multiprocessing.active_children():
            try:
                child.kill()
            except (OSError, ValueError):
                pass
        os._exit(KILL_EXIT_CODE)


def _already_faulted(path: Path) -> bool:
    return path.with_name(path.name + ".faulted").exists()


def _mark_faulted(path: Path) -> None:
    path.with_name(path.name + ".faulted").write_text("injected\n")


def maybe_corrupt_trace(path: Union[str, Path]) -> bool:
    """Flip payload bytes of a just-published trace entry (once per path).

    Damages the middle of the file — past the header, ahead of the
    footer — so structural checks pass and the CRC catches it mid-walk,
    which is the hardest corruption mode to recover from.

    Returns:
        True when the file was corrupted.
    """
    plan = active_plan()
    path = Path(path)
    if not plan.fires("trace_corrupt", path.name) or _already_faulted(path):
        return False
    try:
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.seek(size // 2)
            chunk = handle.read(8)
            handle.seek(size // 2)
            handle.write(bytes(b ^ 0xFF for b in chunk))
    except OSError:
        return False
    _mark_faulted(path)
    return True


def maybe_corrupt_cache(path: Union[str, Path]) -> bool:
    """Truncate a just-stored cache shard to garbage (once per path)."""
    plan = active_plan()
    path = Path(path)
    if not plan.fires("cache_corrupt", path.name) or _already_faulted(path):
        return False
    try:
        path.write_text("{corrupt-by-fault-injection")
    except OSError:
        return False
    _mark_faulted(path)
    return True
