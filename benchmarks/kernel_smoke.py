#!/usr/bin/env python
"""Kernel smoke check: per-kind throughput of the chunked trace walk.

Records the reference two-figure sweep's traces (fig9 coverage + fig10
timing) into one trace store, then measures warm replay throughput per
job kind and writes the perf-trajectory record. The measurement uses
the engine's serial fan-out (``--jobs 1`` default): one chunk decode +
pre-pass feeds every consumer of a trace key, which is the hot path the
chunked walk batches (a worker pool instead re-decodes per process and
measures multiprocessing overhead). Each measurement takes the best of
``--repeat`` runs so scheduler noise on shared CI runners does not
mask the walk's real cost.

The record's ``kinds`` table (``coverage``, ``timing``) is what
``tools/bench_compare.py`` reads; its PR number is parsed from the
``--bench-out`` filename (``BENCH_<pr>.json``). Parity of the walk
with a per-access reference loop is asserted by ``tests/test_kernels.py``.

Used by CI; also runnable by hand::

    python benchmarks/kernel_smoke.py
    python benchmarks/kernel_smoke.py --bench-out BENCH_12.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.engine import Engine, JobGraph  # noqa: E402
from repro.experiments import fig9, fig10  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402

from faults_smoke import pr_number_from_bench_out  # noqa: E402


def declare(config: ExperimentConfig) -> JobGraph:
    graph = JobGraph()
    fig9.declare(config, graph)
    fig10.declare(config, graph)
    return graph


def _kind_throughput(config: ExperimentConfig, store_dir: str, jobs: int,
                     repeat: int) -> "dict[str, dict[str, float]]":
    """Best-of-``repeat`` accesses/sec per job kind over the warm store."""
    by_kind: "dict[str, list]" = {}
    for job in declare(config):
        by_kind.setdefault(job.kind, []).append(job)
    out: "dict[str, dict[str, float]]" = {}
    for kind, kind_jobs in sorted(by_kind.items()):
        best = None
        for _ in range(repeat):
            graph = JobGraph()
            for job in kind_jobs:
                graph.add(job)
            engine = Engine(jobs=jobs, trace_store=store_dir)
            started = time.perf_counter()
            engine.run(graph)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        accesses = sum(job.length for job in kind_jobs)
        out[kind] = {
            "jobs": len(kind_jobs),
            "accesses": accesses,
            "wall_seconds": round(best, 3),
            "accesses_per_second": round(accesses / best, 1),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000,
                        help="trace length per workload (default: 20k)")
    parser.add_argument("--workloads", nargs="+", default=["db2", "qry2"],
                        help="workload subset (default: db2 qry2)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="engine workers; 1 = serial fan-out, the "
                        "walk's shared-decode fast path (default: 1)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing runs per kind; best is kept "
                        "(default: 3)")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="also write the perf-trajectory JSON record")
    args = parser.parse_args(argv)
    if args.bench_out and pr_number_from_bench_out(args.bench_out) is None:
        # catch CI filename drift at the source: an unparseable name
        # would emit a record with "pr": null and break the trajectory
        parser.error(
            f"--bench-out {args.bench_out!r} must be named BENCH_<pr>.json"
        )

    config = ExperimentConfig.small()
    config.trace_length = args.length
    config.workloads = list(args.workloads)

    with tempfile.TemporaryDirectory(prefix="repro-kernel-") as store_dir:
        # record every trace once; the timed runs below replay them
        engine = Engine(jobs=args.jobs, trace_store=store_dir)
        started = time.perf_counter()
        engine.run(declare(config))
        wall = time.perf_counter() - started
        print(f"[record ] {engine.stats.format()} ({wall:.1f}s)")
        kinds = _kind_throughput(config, store_dir, args.jobs, args.repeat)

    record = {
        "bench": "kernel_smoke",
        "pr": pr_number_from_bench_out(args.bench_out),
        "sweep": {
            "figures": ["fig9", "fig10"],
            "workloads": config.workloads,
            "trace_length": config.trace_length,
            "jobs": args.jobs,
            "fanout": "serial" if args.jobs == 1 else "pool",
            "repeat": args.repeat,
            "statistic": "best",
        },
        # the table bench_compare reads
        "kinds": kinds,
    }
    print(json.dumps(record, indent=2))
    if args.bench_out:
        Path(args.bench_out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"[bench record written to {args.bench_out}]", file=sys.stderr)
    print("OK: " + ", ".join(
        f"{kind} {row['accesses_per_second']:.1f} acc/s"
        for kind, row in kinds.items()
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
