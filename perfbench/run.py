#!/usr/bin/env python3
"""Layer-by-layer benchmark of the STeMS simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 \
        --seconds 55 --trace 0

Each workload declares figure modules into one ``JobGraph``, runs it
serially with an ``Engine`` built the way ``repro-experiments`` builds
one by default (fresh result cache, run journal on, default kernel,
broadcast mode and telemetry), then collects and exports the rows.
Set-up records every trace key into an empty trace store; the sweeps
replay that store.

``--trace 0`` repeats the sweep until ``--seconds`` have passed and
prints the end-to-end metrics. ``--trace 1`` runs one untraced and one
traced sweep and prints the per-layer metrics, including the tracing
overhead. Both check the exported rows and the simulated counts, and
print a detail line with the conditions of the run before the final
result line. See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: scratch space for trace stores, result caches and exports
WORK_DIR = ROOT / ".perfbench-work"

#: (workloads, trace length) pairs every sweep covers: an OLTP and a DSS
#: workload, plus em3d long enough that its ~44k-access iteration repeats
TRACE_SIZES: Tuple[Tuple[Tuple[str, ...], int], ...] = (
    (("db2", "qry2"), 16_000),
    (("em3d",), 56_000),
)
PAPER_MODULES = ("fig9", "fig10")
ANALYSIS_MODULES = ("fig6", "fig7", "fig8")
#: workload -> figure modules. Both run at ``--jobs 1``: one process,
#: so the sweep time is not also a measure of the host's scheduler.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "paper_sweep": PAPER_MODULES,
    "analysis_sweep": ANALYSIS_MODULES,
}
#: set-up is repeated this many times per run; the median is reported
SETUP_REPEATS = 5
#: ``repro-experiments --retries`` default
RETRIES = 3
#: iterations of the pure-Python calibration loop
CALIBRATION_LOOPS = 1_000_000


def size_tag() -> str:
    return ";".join(
        f"{','.join(names)}@{length}" for names, length in TRACE_SIZES
    )


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (host speed reference)."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i & 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def reap_children(deadline_s: float = 60.0) -> None:
    """Wait until every child process the engine started has ended;
    their CPU time and peak RSS are only charged to this process once
    they are reaped."""
    end = time.monotonic() + deadline_s
    while multiprocessing.active_children():
        if time.monotonic() > end:
            raise RuntimeError("child processes did not exit")
        time.sleep(0.01)


def peak_rss_mb() -> Dict[str, float]:
    """Peak resident set of this process and of its largest reaped child."""
    return {
        "parent": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        ),
    }


class Bench:
    """One invocation: set-up, sweeps and checks for one workload."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        from repro.experiments.runner import EXPERIMENTS

        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.modules = WORKLOADS[workload]
        self.jobs = 1
        self._experiments = EXPERIMENTS
        self.store_dir: Optional[Path] = None

    # -- set-up --------------------------------------------------------------

    def declare(self):
        from repro.engine import JobGraph
        from repro.experiments.config import ExperimentConfig

        configs = [
            ExperimentConfig(
                trace_length=length, seed=self.seed, workloads=list(names)
            )
            for names, length in TRACE_SIZES
        ]
        graph = JobGraph()
        plans = [
            (name, config, self._experiments[name].declare(config, graph))
            for config in configs
            for name in self.modules
        ]
        return configs, graph, plans

    def setup(self) -> Tuple[float, int]:
        """Declare the graph and record every trace key into an empty
        store. Returns (seconds, bytes recorded)."""
        from repro.tracestore import TraceStore

        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        start = time.perf_counter()
        self.configs, self.graph, self.plans = self.declare()
        store = TraceStore(store_dir)
        keys = sorted({job.trace_key for job in self.graph})
        for key in keys:
            store.record(key)
        seconds = time.perf_counter() - start
        recorded = sum(store.path_for(key).stat().st_size for key in keys)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir)
        self.store_dir = store_dir
        return seconds, recorded

    @property
    def accesses(self) -> int:
        return sum(job.length for job in self.graph)

    # -- one sweep -------------------------------------------------------------

    def sweep(self) -> Dict[str, Any]:
        """Run the graph once on a fresh result cache; collect, export
        and check the rows."""
        from repro.engine import Engine, JobFailure, RetryPolicy, RunJournal
        from repro.engine.journal import config_hash, runs_root

        from perfbench import checks

        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        journal = RunJournal.create(runs_root(cache_dir), header={
            "argv": ["perfbench", self.workload, f"--seed={self.seed}"],
            "experiments": list(self.modules),
            "config": config_hash(self.configs[0]),
        })
        try:
            engine = Engine(
                jobs=self.jobs,
                cache_dir=cache_dir,
                trace_store=self.store_dir,
                retry=RetryPolicy(attempts=RETRIES),
                journal=journal,
            )
            with engine:
                before = os.times()
                start = time.perf_counter()
                results = engine.run(self.graph)
                run_s = time.perf_counter() - start
                reap_children()
                after = os.times()
                stats = engine.stats
                journal.finish("degraded" if stats.degraded else "clean",
                               stats=stats.as_dict())
                engine.telemetry.write(journal.directory, journal.run_id)
        finally:
            journal.close()

        failed = {
            job.job_hash for job in self.graph
            if isinstance(results.get(job.job_hash), JobFailure)
        }
        failed |= {
            span.job_hash for span in engine.telemetry.spans
            if span.attempt > 1 or span.status != "ok"
        }
        problems: List[str] = []
        if stats.degraded:
            problems.append(f"engine degraded: {stats.format()}")
        start = time.perf_counter()
        try:
            rows = self.rows(results)
        except Exception as error:  # a failed job leaves a hole
            rows = None
            problems.append(f"collect failed: {type(error).__name__}: {error}")
        collect_s = time.perf_counter() - start
        exports_digest = None
        if rows is not None:
            exports = checks.export_bytes(rows, cache_dir / "export")
            exports_digest = checks.digest(exports)
            for name, module_rows in rows.items():
                problems.extend(checks.row_problems(name, module_rows))
        counts = checks.model_counts(
            [job for job in self.graph
             if not isinstance(results.get(job.job_hash), JobFailure)],
            results,
        )
        shutil.rmtree(cache_dir)
        return {
            "run_s": run_s,
            "cpu_s": sum(after[:4]) - sum(before[:4]),
            "collect_s": collect_s,
            "exports": exports_digest,
            "model_counts": checks.json_digest(counts),
            "count_summary": checks.count_summary(counts),
            "engine_counts": checks.engine_counts(stats),
            "failed_jobs": len(failed),
            "problems": problems,
            "kernel": engine.kernel,
            "broadcast": engine.broadcast,
            "telemetry": engine.telemetry.mode,
        }

    def rows(self, results) -> Dict[str, List[Any]]:
        out: Dict[str, List[Any]] = {}
        for name, config, plan in self.plans:
            module = self._experiments[name]
            collected = module.collect(config, plan, results)
            out.setdefault(name, []).extend(module.export_rows(collected))
        return out


# -- checks ------------------------------------------------------------------


def check_sweeps(bench: Bench, sweeps: Sequence[Dict[str, Any]]
                 ) -> Tuple[List[str], str, int]:
    """Problems across the sweeps of one run, the reference status, and
    how many job executions failed."""
    from perfbench import checks

    problems = [
        f"sweep {index}: {problem}"
        for index, sweep in enumerate(sweeps)
        for problem in sweep["problems"]
    ]
    first = sweeps[0]
    for key in ("exports", "model_counts", "engine_counts"):
        if any(sweep[key] != first[key] for sweep in sweeps[1:]):
            problems.append(f"{key} differ between sweeps of one run")
    references = checks.load_references()
    graph_ref = references.get("graphs", {}).get(
        checks.graph_key(bench.modules, bench.seed, size_tag())
    )
    engine_ref = references.get("engine_counts", {}).get(
        checks.engine_key(
            bench.workload, bench.jobs, bench.seed, size_tag()
        )
    )
    if engine_ref is not None and engine_ref != first["engine_counts"]:
        problems.append("engine counts differ from the reference")
    if graph_ref is None:
        status = "no reference for this seed"
    else:
        status = "reference matched"
        for key in ("exports", "model_counts"):
            if any(sweep[key] != graph_ref[key] for sweep in sweeps):
                problems.append(f"{key} differ from the reference")
                status = "reference mismatch"
    if problems:
        failed = len(bench.graph) * len(sweeps)
    else:
        failed = sum(sweep["failed_jobs"] for sweep in sweeps)
    return problems, status, failed


def conditions(bench: Bench, sweep: Dict[str, Any]) -> Dict[str, Any]:
    """What the numbers were measured under."""
    from repro.kernels import numpy_or_none

    numpy = numpy_or_none()
    return {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "platform": platform.platform(),
        "kernel": sweep["kernel"],
        "broadcast": sweep["broadcast"],
        "telemetry": sweep["telemetry"],
        "jobs": bench.jobs,
        "retries": RETRIES,
        "journal": True,
        "result_cache": "fresh per sweep",
        "trace_store": "recorded in set-up, replayed by every sweep",
        "calibration_s": calibrate(),
        "calibration_loops": CALIBRATION_LOOPS,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- the two kinds of run -----------------------------------------------------


def timed_run(bench: Bench, seconds: float, import_s: float) -> Dict[str, Any]:
    setups = [bench.setup()[0] for _ in range(SETUP_REPEATS)]
    sweeps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        sweep_start = time.perf_counter()
        sweeps.append(bench.sweep())
        if len(sweeps) == 1:
            # later sweeps grow the parent's heap: fix the window so the
            # peak does not depend on how many sweeps fit in the run
            peak_rss = peak_rss_mb()
        now = time.perf_counter()
        if now - started + (now - sweep_start) > seconds:
            break
    problems, status, failed = check_sweeps(bench, sweeps)
    rates = [bench.accesses / sweep["run_s"] for sweep in sweeps]
    setup_s = import_s + statistics.median(setups)
    metrics = {
        "accesses_per_s": metric(statistics.median(rates), "acc/s"),
        "cpu_s": metric(statistics.median(s["cpu_s"] for s in sweeps), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(max(peak_rss.values()), "MB"),
    }
    context = conditions(bench, sweeps[0])
    detail = {
        "sweeps": len(sweeps),
        "sweep_run_s": [s["run_s"] for s in sweeps],
        "sweep_cpu_s": [s["cpu_s"] for s in sweeps],
        "setup_samples_s": setups,
        "import_s": import_s,
        "peak_rss_mb": peak_rss,
        "accesses_per_sweep": bench.accesses,
        "accesses_per_calibration_s": (
            metrics["accesses_per_s"]["value"] * context["calibration_s"]
        ),
        "conditions": context,
    }
    return finish(bench, sweeps, problems, status, failed, metrics, detail)


def traced_run(bench: Bench) -> Dict[str, Any]:
    from perfbench.layers import LAYERS, PREFETCH_KINDS, Tracer

    setup_tracer = Tracer()
    with setup_tracer:
        _, recorded = bench.setup()
    untraced = bench.sweep()
    tracer = Tracer()
    with tracer:
        traced = bench.sweep()
    sweeps = [untraced, traced]
    problems, status, failed = check_sweeps(bench, sweeps)
    for tracing in (setup_tracer, tracer):
        if tracing.patched():
            problems.append("tracing wrappers left installed")

    metrics: Dict[str, Dict[str, Any]] = {}
    untimed = {"engine.cache_put", "engine.journal", "workloads.generate",
               "tracestore.record"}
    for layer in LAYERS:
        if layer not in untimed:
            metrics[f"{layer}.self_s"] = metric(tracer.self_s(layer), "s")
    metrics["memsys.hierarchy.calls"] = metric(
        tracer.calls("memsys.hierarchy"), "count"
    )
    metrics["sim.timing.calls"] = metric(tracer.calls("sim.timing"), "count")
    hierarchy = tracer.hierarchy_counts()
    metrics["memsys.l1_hit_rate"] = metric(
        ratio(hierarchy["l1_hits"], hierarchy["accesses"]), "ratio"
    )
    metrics["memsys.l2_hit_rate"] = metric(ratio(
        hierarchy["l2_hits"], hierarchy["accesses"] - hierarchy["l1_hits"]
    ), "ratio")
    for kind in PREFETCH_KINDS:
        walk = tracer.walks.get(kind, {})
        issued = walk.get("issued_prefetches", 0)
        covered = walk.get("covered", 0)
        metrics[f"prefetch.{kind}.issued"] = metric(issued, "count")
        metrics[f"prefetch.{kind}.accuracy"] = metric(
            ratio(covered, issued), "ratio"
        )
        metrics[f"prefetch.{kind}.coverage"] = metric(
            ratio(covered, covered + walk.get("uncovered", 0)), "ratio"
        )
    metrics["workloads.generate_s"] = metric(
        setup_tracer.busy_s("workloads.generate"), "s"
    )
    metrics["tracestore.record_s"] = metric(
        setup_tracer.self_s("tracestore.record"), "s"
    )
    metrics["tracestore.record_bytes"] = metric(recorded, "bytes")
    metrics["engine.cache_put_s"] = metric(
        tracer.busy_s("engine.cache_put"), "s"
    )
    metrics["engine.journal_s"] = metric(tracer.busy_s("engine.journal"), "s")
    metrics["engine.worker_busy_frac"] = metric(
        ratio(untraced["cpu_s"], untraced["run_s"]), "ratio"
    )
    metrics["experiments.collect_s"] = metric(untraced["collect_s"], "s")
    metrics["trace.overhead"] = metric(
        ratio(traced["run_s"], untraced["run_s"]), "ratio"
    )
    layer_total = sum(
        tracer.self_s(layer) for layer in LAYERS if layer not in untimed
    ) + tracer.busy_s("engine.cache_put") + tracer.busy_s("engine.journal")
    metrics["trace.attributed_frac"] = metric(
        1.0 - ratio(tracer.self_s("engine"), layer_total), "ratio"
    )
    detail = {
        "untraced_run_s": untraced["run_s"],
        "traced_run_s": traced["run_s"],
        "layer_calls": {layer: tracer.calls(layer) for layer in LAYERS},
        "walk_counts": tracer.walks,
        "hierarchy_counts": hierarchy,
        "conditions": conditions(bench, untraced),
    }
    return finish(bench, sweeps, problems, status, failed, metrics, detail)


def finish(bench: Bench, sweeps, problems, status, failed, metrics,
           detail) -> Dict[str, Any]:
    detail = {
        "workload": bench.workload,
        "seed": bench.seed,
        "trace_sizes": size_tag(),
        "jobs_per_sweep": len(bench.graph),
        "exports_sha256": sweeps[0]["exports"],
        "model_counts_sha256": sweeps[0]["model_counts"],
        "engine_counts": sweeps[0]["engine_counts"],
        "count_summary": sweeps[0]["count_summary"],
        "reference": status,
        "problems": problems,
        **detail,
    }
    result = {
        "correct": not problems,
        "attempted": len(bench.graph) * len(sweeps),
        "failed": failed,
        "metrics": metrics,
    }
    return {"detail": detail, "result": result}


# -- entry point --------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="trace seed (same seed, same inputs)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    start = time.perf_counter()
    import repro.experiments.runner  # noqa: F401  (the simulator itself)
    import_s = time.perf_counter() - start

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        bench = Bench(args.workload, args.seed, scratch)
        if args.trace:
            report = traced_run(bench)
        else:
            report = timed_run(bench, args.seconds, import_s)
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps({"detail": report["detail"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
