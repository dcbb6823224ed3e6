"""Output checks: export hashes, row invariants and deterministic counts.

A sweep's exports are written with the repository's own JSON export
codec (the bytes ``repro-experiments --export json`` writes) and hashed.
The hash must match the reference recorded in ``reference.json`` for
the same workload, seed and trace sizes, and every sweep of one
invocation -- traced or not -- must produce the same bytes.

The counts are the simulated statistics behind the rows (every job
result as the result cache encodes it) plus the engine's store and
broadcast counters. They are deterministic: two runs of the same code
must agree exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.sim.export import encode_result, write_json

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: float slack for "fractions sum to one" checks
_EPS = 1e-9


def export_bytes(rows_by_module: Mapping[str, Sequence[Any]],
                 directory: Path) -> Dict[str, bytes]:
    """Each module's rows through the JSON export codec, as bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, rows in rows_by_module.items():
        path = write_json(rows, directory / f"{name}.json")
        out[name] = path.read_bytes()
    return out


def digest(exports: Mapping[str, bytes]) -> str:
    sha = hashlib.sha256()
    for name in sorted(exports):
        sha.update(name.encode() + b"\0" + exports[name] + b"\0")
    return sha.hexdigest()


def json_digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- row invariants --------------------------------------------------------


def _fraction(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and (
        -_EPS <= value <= 1.0 + _EPS
    )


def row_problems(module: str, rows: Iterable[Any]) -> List[str]:
    """Invariant violations in one module's exported rows."""
    problems: List[str] = []
    for row in rows:
        record = row if isinstance(row, Mapping) else vars(row)
        where = f"{module}/{record.get('workload')}"
        if module == "fig9":
            where += f"/{record['predictor']}"
            if record["baseline_misses"] < 1:
                problems.append(f"{where}: baseline_misses < 1")
            if not _fraction(record["uncovered"]):
                problems.append(f"{where}: uncovered out of [0, 1]")
            if record["covered"] < 0 or record["overpredicted"] < 0:
                problems.append(f"{where}: negative covered/overpredicted")
            # uncovered is clamped at 0; below the clamp the two add to 1
            if record["uncovered"] > 0 and abs(
                record["covered"] + record["uncovered"] - 1.0
            ) > _EPS:
                problems.append(f"{where}: covered + uncovered != 1")
        elif module == "fig10":
            where += f"/{record['predictor']}"
            if not (record["cycles"] > 0 and record["baseline_cycles"] > 0):
                problems.append(f"{where}: cycles not > 0")
        elif module == "fig6":
            parts = [record[k] for k in ("both", "tms_only", "sms_only",
                                         "neither")]
            if not all(_fraction(p) for p in parts):
                problems.append(f"{where}: fraction out of [0, 1]")
            if record["misses"] > 0 and abs(sum(parts) - 1.0) > 1e-6:
                problems.append(f"{where}: categories do not sum to 1")
        elif module == "fig7":
            where += f"/{record['scope']}"
            parts = [record[k] for k in ("opportunity", "head", "new",
                                         "non_repetitive")]
            if not all(_fraction(p) for p in parts):
                problems.append(f"{where}: fraction out of [0, 1]")
            if record["total"] > 0 and abs(sum(parts) - 1.0) > 1e-6:
                problems.append(f"{where}: categories do not sum to 1")
        elif module == "fig8":
            cumulative = [record[k] for k in ("at_plus_1", "within_2",
                                              "within_4", "within_6")]
            if not all(_fraction(v) for v in cumulative + [
                record["matched_fraction"]
            ]):
                problems.append(f"{where}: fraction out of [0, 1]")
            if any(b < a - _EPS for a, b in zip(cumulative, cumulative[1:])):
                problems.append(f"{where}: cumulative fractions decrease")
        else:
            problems.append(f"{where}: no invariants for module {module!r}")
    return problems


# -- deterministic counts --------------------------------------------------

#: EngineStats fields that depend only on the job graph and the engine
#: shape, never on timing
ENGINE_COUNTS = (
    "requested", "deduplicated", "cache_hits", "executed",
    "generation_passes", "passes_saved", "store_hits", "store_misses",
    "bytes_replayed", "broadcast_waves", "broadcast_chunks", "bytes_shared",
)


def model_counts(graph: Iterable[Any], results: Mapping[str, Any]) -> Dict:
    """Every job's encoded result, keyed by job label and trace length
    (unique within a benchmark graph)."""
    return {
        f"{job.label()}@{job.length}": encode_result(results[job.job_hash])
        for job in graph
    }


def engine_counts(stats: Any) -> Dict[str, int]:
    values = stats.as_dict()
    return {name: values[name] for name in ENGINE_COUNTS}


def count_summary(counts: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Readable totals per job kind and predictor, for the detail line."""
    summary: Dict[str, Dict[str, Any]] = {}
    records = list(counts.values())
    while records:
        record = records.pop()
        if record["__result__"] == "tuple":
            records.extend(record["items"])
            continue
        key = record["__result__"]
        if "prefetcher" in record:
            key += ":" + record["prefetcher"]
        bucket = summary.setdefault(key, {})
        for name, value in record.items():
            if isinstance(value, int) and not isinstance(value, bool):
                bucket[name] = bucket.get(name, 0) + value
    return dict(sorted(summary.items()))


# -- references ------------------------------------------------------------


def load_references(path: Optional[Path] = None) -> Dict[str, Any]:
    path = path if path is not None else REFERENCE_PATH
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def graph_key(modules: Sequence[str], seed: int, size_tag: str) -> str:
    """Reference key of one graph's exports and model counts."""
    return f"{'+'.join(modules)}|seed={seed}|{size_tag}"


def engine_key(workload: str, jobs: int, seed: int, size_tag: str) -> str:
    """Reference key of one workload's engine counts. The worker count
    is part of the key: broadcast runs only under ``--jobs`` > 1, with
    one consumer per worker."""
    return f"{workload}|jobs={jobs}|seed={seed}|{size_tag}"
