#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every run against.

For each workload and seed this runs one sweep exactly as the benchmark
does and stores, in ``perfbench/reference.json``:

* per graph and seed: the SHA-256 of the exported rows and of the
  model counts (a graph already recorded must come out the same, or
  nothing is written);
* per workload and seed: the engine's store and broadcast counters.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --seeds 0-39
    python3 perfbench/make_reference.py --seeds 7 --workloads paper_sweep

Entries are merged into the existing file. Regenerate references only
for a change that is meant to alter simulated results, and say so in
the change; a speed-only change must pass against the old ones.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, run

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 0-39 or 1,2,5-7")
    parser.add_argument("--workloads", nargs="+", default=sorted(run.WORKLOADS),
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--out", type=Path, default=checks.REFERENCE_PATH,
                        help="file to merge the entries into "
                        "(default: perfbench/reference.json)")
    args = parser.parse_args()

    references = checks.load_references(args.out)
    references["trace_sizes"] = run.size_tag()
    graphs = references.setdefault("graphs", {})
    engines = references.setdefault("engine_counts", {})
    run.WORK_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        for workload in args.workloads:
            scratch = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
            try:
                bench = run.Bench(workload, seed, scratch)
                bench.setup()
                sweep = bench.sweep()
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if sweep["problems"] or sweep["failed_jobs"]:
                print(f"{workload} seed {seed}: {sweep['problems']}",
                      file=sys.stderr)
                return 1
            entry = {key: sweep[key] for key in ("exports", "model_counts")}
            key = checks.graph_key(bench.modules, seed, run.size_tag())
            if graphs.get(key, entry) != entry:
                print(f"{key}: {workload} disagrees with the recorded graph "
                      "reference", file=sys.stderr)
                return 1
            graphs[key] = entry
            engine = checks.engine_key(workload, bench.jobs, seed,
                                       run.size_tag())
            engines[engine] = sweep["engine_counts"]
            print(f"{workload} seed {seed}: {entry['exports'][:16]}",
                  flush=True)
        args.out.write_text(json.dumps(references, indent=1, sort_keys=True)
                            + "\n")
    try:
        run.WORK_DIR.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
