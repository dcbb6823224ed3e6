"""Self-test of the benchmark at tiny scale.

Run from the repository root with ``python3 -m pytest -q perfbench``
(the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, layers, run
from repro.experiments import fig9
from repro.experiments.fig9 import Fig9Row
from repro.experiments.fig10 import Fig10Row
from repro.memsys.hierarchy import Hierarchy
from repro.prefetch.tms.tms import TMSPrefetcher
from repro.sim.driver import SimulationDriver

TINY_SIZES = ((("db2",), 4096), (("em3d",), 4096))
SEED = 3


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny traces, one set-up, a cheap calibration loop, and a work
    directory under ``tmp_path``."""
    monkeypatch.setattr(run, "TRACE_SIZES", TINY_SIZES)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "CALIBRATION_LOOPS", 1000)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    return tmp_path


def benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def entry_points() -> dict:
    """Every attribute the tracer patches, as the class or module holds it."""
    points = {
        (owner, attr): vars(owner).get(attr)
        for entries in layers.LAYERS.values()
        for owner, attr in entries
    }
    for owner, attr in ((Hierarchy, "__init__"), (SimulationDriver, "start")):
        points[(owner, attr)] = vars(owner).get(attr)
    return points


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(
    tiny, capsys, workload, trace
):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    detail = json.loads(lines[-2])["detail"]
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for spec in named:
        emitted = result["metrics"][spec["name"]]
        assert emitted["unit"] == spec["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert not run.WORK_DIR.exists()


def test_end_to_end_metrics_are_never_zero(tiny, capsys):
    run.main(["--workload", "paper_sweep", "--seed", str(SEED),
              "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_perturbed_export_trips_the_output_check(tiny, monkeypatch):
    bench = run.Bench("paper_sweep", SEED, tiny)
    bench.setup()
    clean = bench.sweep()
    reference = tiny / "reference.json"
    reference.write_text(json.dumps({"graphs": {
        checks.graph_key(bench.modules, SEED, run.size_tag()): {
            key: clean[key] for key in ("exports", "model_counts")
        },
    }}))
    monkeypatch.setattr(checks, "REFERENCE_PATH", reference)
    assert run.check_sweeps(bench, [clean]) == ([], "reference matched", 0)

    export_rows = fig9.export_rows

    def perturbed(results):
        rows = export_rows(results)
        rows[0] = dataclasses.replace(
            rows[0], overpredicted=rows[0].overpredicted + 1e-9
        )
        return rows

    monkeypatch.setattr(fig9, "export_rows", perturbed)
    dirty = bench.sweep()
    problems, status, failed = run.check_sweeps(bench, [dirty])
    assert "exports differ from the reference" in problems
    assert status == "reference mismatch"
    assert failed == len(bench.graph)
    problems, _, _ = run.check_sweeps(bench, [clean, dirty])
    assert "exports differ between sweeps of one run" in problems


def test_row_invariants_flag_broken_rows():
    good = Fig9Row("db2", "tms", 10, covered=0.6, uncovered=0.4,
                   overpredicted=0.1)
    clamped = Fig9Row("db2", "sms", 10, covered=1.2, uncovered=0.0,
                      overpredicted=0.0)
    assert checks.row_problems("fig9", [good, clamped]) == []
    torn = dataclasses.replace(good, covered=0.5)
    assert checks.row_problems("fig9", [torn]) == [
        "fig9/db2/tms: covered + uncovered != 1"
    ]
    stalled = Fig10Row("db2", "tms", baseline_cycles=100.0, cycles=0.0)
    assert checks.row_problems("fig10", [stalled]) == [
        "fig10/db2/tms: cycles not > 0"
    ]


def test_tracing_wrappers_are_removed_after_the_traced_run(tiny):
    before = entry_points()
    report = run.traced_run(run.Bench("paper_sweep", SEED, tiny))
    assert report["result"]["correct"], report["detail"]["problems"]
    assert entry_points() == before
    # an inherited entry point was wrapped on the subclass; removal must
    # uncover the base class's method again
    assert "pop_requests" not in vars(TMSPrefetcher)
    calls = report["detail"]["layer_calls"]
    assert calls["memsys.hierarchy"] > 0 and calls["prefetch.stems"] > 0


def test_tracer_self_times_partition_busy_time():
    tracer = layers.Tracer()
    outer = tracer._timed("engine", lambda f: f())
    inner = tracer._timed("sim.driver", lambda: sum(range(20000)))
    outer(inner)
    assert tracer.calls("engine") == tracer.calls("sim.driver") == 1
    total = tracer.self_s("engine") + tracer.self_s("sim.driver")
    assert total == pytest.approx(tracer.busy_s("engine"))
    assert 0 <= tracer.self_s("engine") < tracer.busy_s("engine")


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
