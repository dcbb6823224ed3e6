"""Per-layer tracing for the benchmark's traced run.

The tracer replaces each layer's public entry points with timing
wrappers *at class (or module) level* before a sweep starts. The
simulation driver hoists bound methods (``hierarchy.access``,
``prefetcher.on_access``, ...) when a walk starts, so a walk started
after :meth:`Tracer.install` calls the wrappers on every access.

Every wrapper keeps three numbers per layer, in memory: calls, busy time
(wall time inside the layer, children included) and child time (busy
time of wrapped layers called from inside it). Self time is busy time
minus child time, so nested layers are never double counted.

Two hooks record counts rather than time: every ``Hierarchy`` built
registers its hit counters, and every driver walk reports its
``CoverageResult`` when it finishes (timing jobs discard theirs, so this
is the only place the stride baseline's prefetch counts exist).

The benchmark's sweeps run in one process, so every wrapped call is
counted where it happens.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.analysis import repetition
from repro.analysis.correlation import CorrelationDistanceAnalysis
from repro.analysis.joint import JointPredictabilityAnalysis
from repro.analysis.repetition import RepetitionAnalysis
from repro.engine import engine as engine_module
from repro.engine import fanout
from repro.engine.cache import ResultCache
from repro.engine.engine import Engine
from repro.engine.journal import RunJournal
from repro.kernels import decode
from repro.kernels.prepass import AccessChunk
from repro.memsys.hierarchy import Hierarchy
from repro.memsys.svb import StreamedValueBuffer
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.sms.generations import ActiveGenerationTable
from repro.prefetch.sms.sms import SMSPrefetcher
from repro.prefetch.stems.stems import STeMSPrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import SimulationDriver
from repro.sim.timing import TimingModel
from repro.tracestore.store import TraceStore
from repro.workloads.base import ComposedWorkload

PREFETCH_METHODS = (
    "on_access", "pop_requests", "on_l1_eviction", "on_svb_discard", "finish",
)
ANALYSIS_METHODS = ("consume", "update", "update_block", "finalize")

#: prefetcher kinds with per-kind metrics (``CoverageResult.prefetcher``)
PREFETCH_KINDS = ("stride", "tms", "sms", "stems")

#: layer name -> the (owner, attribute) entry points it wraps
LAYERS: Dict[str, List[Tuple[Any, str]]] = {
    "engine": [(Engine, "run")],
    "engine.cache_put": [(ResultCache, "store")],
    "engine.journal": [(RunJournal, "append"), (RunJournal, "_write_manifest")],
    "sim.driver": [
        (fanout, "run_group"),
        (engine_module, "run_group"),
        (SimulationDriver, "run"),
    ],
    "sim.timing": [(TimingModel, "update"), (TimingModel, "finalize")],
    "memsys.hierarchy": [
        (Hierarchy, name)
        for name in ("access", "fill_from_svb", "install_prefetch", "present")
    ],
    "memsys.svb": [
        (StreamedValueBuffer, name)
        for name in (
            "__contains__", "insert", "consume", "invalidate_stream",
            "drain_unused",
        )
    ],
    "prefetch.stride": [(StridePrefetcher, m) for m in PREFETCH_METHODS],
    "prefetch.tms": [(TMSPrefetcher, m) for m in PREFETCH_METHODS],
    "prefetch.sms": [(SMSPrefetcher, m) for m in PREFETCH_METHODS],
    "prefetch.stems": [(STeMSPrefetcher, m) for m in PREFETCH_METHODS],
    "prefetch.composite": [(CompositePrefetcher, m) for m in PREFETCH_METHODS],
    "prefetch.sms.agt": [(ActiveGenerationTable, "observe")],
    "analysis.joint": [
        (JointPredictabilityAnalysis, m) for m in ANALYSIS_METHODS
    ],
    "analysis.repetition": [(RepetitionAnalysis, m) for m in ANALYSIS_METHODS],
    "analysis.sequitur": [(repetition, "classify_repetition")],
    "analysis.correlation": [
        (CorrelationDistanceAnalysis, m) for m in ANALYSIS_METHODS
    ],
    "kernels.decode": [(decode, "_decode_chunk")],
    "kernels.prepass": [(AccessChunk, "blocks_for")],
    "workloads.generate": [(ComposedWorkload, "iter_accesses")],
    "tracestore.record": [(TraceStore, "record")],
    "tracestore.replay": [(TraceStore, "_replay_chunks")],
}

#: layers whose entry point returns a generator: time each ``next``
GENERATOR_LAYERS = frozenset({"workloads.generate", "tracestore.replay"})
_DONE = object()

#: walk-result fields summed per prefetcher name
WALK_FIELDS = (
    "accesses", "covered", "uncovered", "issued_prefetches",
    "overpredictions", "l1_hits", "l2_hits",
)
#: hierarchy counters summed over every Hierarchy built
HIERARCHY_FIELDS = ("accesses", "l1_hits", "l2_hits")


class Tracer:
    """Layer wrappers plus the in-memory totals they feed.

    Use as a context manager: wrappers are installed on entry and the
    original attributes restored on exit, whatever happens in between.
    """

    def __init__(self) -> None:
        #: layer -> [calls, busy seconds, child seconds]
        self.totals: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in LAYERS
        }
        #: prefetcher name -> summed WALK_FIELDS
        self.walks: Dict[str, Dict[str, int]] = {}
        self.hierarchy = dict.fromkeys(HIERARCHY_FIELDS, 0)
        self._hierarchy_stats: List[Any] = []
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, entries in LAYERS.items():
            for owner, attr in entries:
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # e.g. a prefetcher without ``finish``
                if layer in GENERATOR_LAYERS:
                    wrapper = self._timed_generator(layer, original)
                else:
                    wrapper = self._timed(layer, original)
                self._patch(owner, attr, wrapper)
        self._patch(Hierarchy, "__init__",
                    self._hierarchy_hook(Hierarchy.__init__))
        self._patch(SimulationDriver, "start",
                    self._walk_hook(SimulationDriver.start))

    def remove(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._saved:
            owner, attr, owned, original = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # was inherited: uncover the base's

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.remove()

    def patched(self) -> List[Tuple[Any, str]]:
        return [(owner, attr) for owner, attr, _, _ in self._saved]

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        owned = attr in vars(owner)
        self._saved.append((owner, attr, owned, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _timed(self, layer: str, fn: Callable) -> Callable:
        slot = self.totals[layer]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _timed_generator(self, layer: str, fn: Callable) -> Callable:
        """Like :meth:`_timed`, but each ``next`` is one timed call: the
        work of a generator happens while its consumer pulls items."""
        timed_next = self._timed(layer, next)

        def timed(iterator: Iterator) -> Iterator:
            while True:
                item = timed_next(iterator, _DONE)
                if item is _DONE:
                    return
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    def _hierarchy_hook(self, init: Callable) -> Callable:
        registered = self._hierarchy_stats

        @functools.wraps(init)
        def wrapper(hierarchy, *args, **kwargs):
            init(hierarchy, *args, **kwargs)
            registered.append(hierarchy.stats)

        return wrapper

    def _walk_hook(self, start: Callable) -> Callable:
        walks = self.walks

        @functools.wraps(start)
        def wrapper(driver, *args, **kwargs):
            walk = start(driver, *args, **kwargs)
            finish = walk.finish

            def finish_and_count():
                result = finish()
                totals = walks.setdefault(
                    result.prefetcher, dict.fromkeys(WALK_FIELDS, 0)
                )
                for field in WALK_FIELDS:
                    totals[field] += getattr(result, field)
                return result

            walk.finish = finish_and_count
            return walk

        return wrapper

    def _fold_hierarchies(self) -> None:
        for stats in self._hierarchy_stats:
            for field in HIERARCHY_FIELDS:
                self.hierarchy[field] += int(stats.get(field))
        self._hierarchy_stats.clear()

    # -- results ---------------------------------------------------------

    def self_s(self, layer: str) -> float:
        _, busy, child = self.totals[layer]
        return busy - child

    def busy_s(self, layer: str) -> float:
        return self.totals[layer][1]

    def calls(self, layer: str) -> int:
        return int(self.totals[layer][0])

    def hierarchy_counts(self) -> Dict[str, int]:
        self._fold_hierarchies()
        return dict(self.hierarchy)

