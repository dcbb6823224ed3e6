#!/usr/bin/env python
"""Multi-worker smoke check: ``--jobs N`` is byte-equal to and faster
than ``--jobs 1``.

Runs the reference two-figure sweep (fig9 coverage + fig10 timing) over
one warm trace store at ``--jobs N`` (default: every core,
``os.cpu_count()``) and at ``--jobs 1``, and asserts that the exported
rows are **byte-equal**: worker count is an execution detail, never a
semantic one.

Then measures the warm full-sweep wall time of both (median of
``--repeat`` rounds; each round runs N then 1, so machine drift hits
both) and records the multi-worker throughput as the
``multiworker_sweep`` kind:

* ``--bench-out BENCH_<pr>.json`` **augments** the perf-trajectory
  record :mod:`benchmarks.kernel_smoke` wrote earlier in the CI run
  (creating a minimal record when run standalone);
* ``--bench-out-serial`` writes a small baseline record carrying the
  ``--jobs 1`` numbers of the same kind, measured in the same run. CI
  feeds both to ``tools/bench_compare.py --require-speedup
  multiworker_sweep:FACTOR``, which keeps the parallel engine paying
  for itself.

Used by CI; also runnable by hand::

    python benchmarks/multiworker_smoke.py
    python benchmarks/multiworker_smoke.py --bench-out BENCH_12.json \\
        --bench-out-serial BENCH_12_serial.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.engine import Engine, JobGraph  # noqa: E402
from repro.experiments import fig9, fig10  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.sim.export import write_json  # noqa: E402

from faults_smoke import pr_number_from_bench_out  # noqa: E402

FIGURES = (("fig9", fig9), ("fig10", fig10))


def declare(config: ExperimentConfig) -> "tuple[JobGraph, dict]":
    graph = JobGraph()
    plans = {name: module.declare(config, graph)
             for name, module in FIGURES}
    return graph, plans


def run_sweep(config: ExperimentConfig, store_dir: str, jobs: int,
              scratch: Path) -> "tuple[dict[str, bytes], float, Engine]":
    """One full sweep: per-figure exported rows as JSON bytes, the
    engine's wall time, and the engine."""
    graph, plans = declare(config)
    engine = Engine(jobs=jobs, trace_store=store_dir)
    started = time.perf_counter()
    results = engine.run(graph)
    wall = time.perf_counter() - started
    exports = {}
    for name, module in FIGURES:
        rows = module.export_rows(module.collect(config, plans[name], results))
        # serialize exactly as the runner's --export json does
        path = scratch / f"{name}-jobs{jobs}.json"
        write_json(rows, path)
        exports[name] = path.read_bytes()
        path.unlink()
    return exports, wall, engine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000,
                        help="trace length per workload (default: 20k)")
    parser.add_argument("--workloads", nargs="+", default=["db2", "qry2"],
                        help="workload subset (default: db2 qry2)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="engine workers of the parallel sweep "
                        "(default: os.cpu_count())")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing rounds; the median is kept "
                        "(default: 5)")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="BENCH_<pr>.json record to augment with the "
                        "multiworker_sweep kind (created if absent)")
    parser.add_argument("--bench-out-serial", default=None, metavar="PATH",
                        help="also write a baseline record carrying the "
                        "--jobs 1 numbers for the same kind")
    args = parser.parse_args(argv)
    if args.bench_out and pr_number_from_bench_out(args.bench_out) is None:
        parser.error(
            f"--bench-out {args.bench_out!r} must be named BENCH_<pr>.json"
        )

    config = ExperimentConfig.small()
    config.trace_length = args.length
    config.workloads = list(args.workloads)
    graph, _ = declare(config)
    n_jobs = sum(1 for _ in graph)
    accesses = sum(job.length for job in graph)

    failures = []
    walls: "dict[int, list[float]]" = {args.jobs: [], 1: []}
    with tempfile.TemporaryDirectory(prefix="repro-multiworker-") as tmp:
        scratch = Path(tmp)
        store_dir = str(scratch / "traces")
        # warm the store once; the timed sweeps below all replay it
        _, _, engine = run_sweep(config, store_dir, args.jobs, scratch)
        print(f"[jobs={args.jobs} (cold)] {engine.stats.format()}")
        exports, engines = {}, {}
        for _ in range(args.repeat):
            for jobs in (args.jobs, 1):
                exports[jobs], wall, engines[jobs] = run_sweep(
                    config, store_dir, jobs, scratch
                )
                walls[jobs].append(wall)
        for jobs, engine in engines.items():
            print(f"[jobs={jobs} (warm)] {engine.stats.format()}")
        for name, _ in FIGURES:
            if exports[args.jobs][name] != exports[1][name]:
                failures.append(
                    f"{name}: --jobs {args.jobs} export differs from "
                    "--jobs 1"
                )

    wall_n = statistics.median(walls[args.jobs])
    wall_1 = statistics.median(walls[1])
    ratio = wall_1 / wall_n
    print(f"[multiworker] jobs={args.jobs} {wall_n:.2f}s, "
          f"jobs=1 {wall_1:.2f}s ({ratio:.2f}x)")

    def sweep_kind(wall: float) -> dict:
        return {
            "jobs": n_jobs,
            "accesses": accesses,
            "wall_seconds": round(wall, 3),
            "accesses_per_second": round(accesses / wall, 1),
        }

    pr = pr_number_from_bench_out(args.bench_out)
    if args.bench_out:
        path = Path(args.bench_out)
        if path.is_file():
            record = json.loads(path.read_text())
        else:
            record = {"bench": "multiworker_smoke", "pr": pr, "kinds": {}}
        record.setdefault("kinds", {})["multiworker_sweep"] = sweep_kind(
            wall_n
        )
        record["multiworker"] = {
            "jobs": args.jobs,
            "cpu_count": os.cpu_count(),
            "workloads": config.workloads,
            "trace_length": config.trace_length,
            "repeat": args.repeat,
            "statistic": "median",
            "wall_seconds_serial": round(wall_1, 3),
            "speedup_vs_serial": round(ratio, 2),
        }
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"[bench record augmented at {path}]", file=sys.stderr)
    if args.bench_out_serial:
        serial_record = {
            "bench": "multiworker_smoke",
            "pr": pr,
            "mode": "serial_baseline",
            "kinds": {"multiworker_sweep": sweep_kind(wall_1)},
        }
        Path(args.bench_out_serial).write_text(
            json.dumps(serial_record, indent=2) + "\n"
        )
        print(f"[serial-baseline record written to "
              f"{args.bench_out_serial}]", file=sys.stderr)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: --jobs {args.jobs} sweep byte-equal to --jobs 1; "
          f"{ratio:.2f}x faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())
