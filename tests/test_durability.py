"""Durable runs: journal, checkpoint/resume, graceful shutdown.

The anchor invariant is the crash-at-any-point contract: a run killed at
an arbitrary job dispatch (``kill_at_job``) or interrupted by SIGINT and
then resumed with ``--resume`` produces output **bit-identical** to an
uninterrupted run, re-executing only the jobs the journal shows as
incomplete. Around it: the write-ahead journal's framing and torn-tail
semantics, job-graph reconstruction from journal descriptions, the
0/1/2/3 exit-code contract, and ``--list-runs``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.engine import (
    Engine,
    JobGraph,
    PrefetcherSpec,
    RunInterrupted,
    RunJournal,
    SimJob,
    find_run,
    job_from_description,
    list_runs,
    load_run,
    runs_root,
)
from repro.engine.faultinject import ENV_VAR, FaultPlan, KILL_EXIT_CODE
from repro.engine.journal import (
    JournalError,
    config_hash,
    decode_line,
    encode_line,
    read_journal,
)
from repro.experiments import fig9
from repro.experiments.runner import build_parser, main as runner_main
from repro.experiments.runner import make_config

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("apache", "em3d")
LENGTH = 2500
SEED = 1


@pytest.fixture(autouse=True)
def _no_ambient_injection(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def build_graph() -> "tuple[JobGraph, list[SimJob]]":
    graph = JobGraph()
    jobs = []
    system = SystemConfig.tiny()
    for workload in WORKLOADS:
        for kind in ("none", "stride", "sms"):
            spec = PrefetcherSpec(kind=kind) if kind != "none" else None
            job = SimJob(kind="coverage", workload=workload, length=LENGTH,
                         seed=SEED, system=system, prefetcher=spec)
            jobs.append(graph.add(job))
    return graph, jobs


# -- line framing and the reader --------------------------------------------


class TestJournalFraming:
    def test_round_trip(self):
        event = {"event": "job_completed", "job": "ab" * 32, "shard": None}
        assert decode_line(encode_line(event)) == event

    def test_crc_mismatch_rejected(self):
        line = encode_line({"event": "x"})
        flipped = line[:-1] + ("}" if line[-1] != "}" else "]")
        with pytest.raises(JournalError):
            decode_line(flipped)

    def test_missing_frame_rejected(self):
        with pytest.raises(JournalError):
            decode_line('{"event": "x"}')
        with pytest.raises(JournalError):
            decode_line("zzzzzzzz {}")

    def test_non_object_rejected(self):
        import zlib

        payload = "[1, 2]"
        line = f"{zlib.crc32(payload.encode()):08x} {payload}"
        with pytest.raises(JournalError):
            decode_line(line)


class TestJournalReader:
    def _journal(self, tmp_path, events) -> Path:
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(encode_line(e) + "\n" for e in events))
        return path

    def test_clean_file(self, tmp_path):
        events = [{"event": "run_started"}, {"event": "job_scheduled"}]
        path = self._journal(tmp_path, events)
        got, damage, valid = read_journal(path)
        assert got == events
        assert damage is None
        assert valid == path.stat().st_size

    def test_torn_tail_drops_only_the_last_line(self, tmp_path):
        events = [{"event": "run_started"}, {"event": "a"}, {"event": "b"}]
        path = self._journal(tmp_path, events)
        with path.open("a") as handle:
            handle.write('deadbeef {"torn":')  # no newline: torn write
        got, damage, valid = read_journal(path)
        assert got == events
        assert damage is not None and damage.torn_tail
        # the valid prefix is exactly the undamaged events
        assert path.read_bytes()[:valid].count(b"\n") == len(events)

    def test_mid_file_damage_truncates_from_there(self, tmp_path):
        events = [{"event": "run_started"}, {"event": "a"}]
        path = self._journal(tmp_path, events)
        lines = path.read_text().splitlines()
        lines.insert(1, "00000000 {garbage")
        lines.append(encode_line({"event": "after"}))
        path.write_text("\n".join(lines) + "\n")
        got, damage, _ = read_journal(path)
        assert got == [{"event": "run_started"}]
        assert damage is not None
        assert not damage.torn_tail
        assert damage.line == 2


# -- the writer --------------------------------------------------------------


class TestRunJournal:
    def test_lifecycle_round_trip(self, tmp_path):
        root = tmp_path / "runs"
        _, jobs = build_graph()
        journal = RunJournal.create(
            root, header={"argv": ["fig9"], "experiments": ["fig9"]},
            fsync=False,
        )
        for job in jobs:
            journal.job_scheduled(job)
        journal.attempt_started(jobs[0].job_hash, 1)
        journal.job_completed(jobs[0], shard=Path("ab/cd.json"))
        journal.finish("interrupted")

        record = load_run(root / journal.run_id)
        assert record.damage is None
        assert set(record.scheduled) == {j.job_hash for j in jobs}
        assert record.completed == {jobs[0].job_hash: "executed"}
        assert record.incomplete() == [j.job_hash for j in jobs[1:]]
        assert record.finished_status == "interrupted"
        assert record.status() == "interrupted"
        assert record.resumable()
        assert record.argv == ["fig9"]

    def test_unsealed_journal_with_dead_pid_is_crashed(self, tmp_path):
        root = tmp_path / "runs"
        journal = RunJournal.create(root, header={"argv": []}, fsync=False)
        journal.close()
        # forge a dead pid into the manifest (the writer's own is alive)
        manifest_path = root / journal.run_id / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["status"] == "running"
        manifest["pid"] = 2 ** 22 + 1  # beyond any real pid here
        manifest_path.write_text(json.dumps(manifest))
        record = load_run(root / journal.run_id)
        assert record.status() == "crashed"
        assert record.resumable()

    def test_bad_run_ids_rejected(self, tmp_path):
        root = tmp_path / "runs"
        with pytest.raises(JournalError):
            RunJournal.create(root, run_id="../escape")
        with pytest.raises(JournalError):
            RunJournal.create(root, run_id="")
        RunJournal.create(root, run_id="ok-1", fsync=False).close()
        with pytest.raises(JournalError):
            RunJournal.create(root, run_id="ok-1")

    def test_finish_rejects_non_terminal_status(self, tmp_path):
        journal = RunJournal.create(tmp_path / "runs", fsync=False)
        with pytest.raises(JournalError):
            journal.finish("running")
        journal.close()

    def test_list_and_find(self, tmp_path):
        root = tmp_path / "runs"
        first = RunJournal.create(root, run_id="a-1",
                                  header={"argv": ["x"]}, fsync=False)
        first.finish("clean")
        second = RunJournal.create(root, run_id="b-2",
                                   header={"argv": ["y"]}, fsync=False)
        second.finish("degraded")
        assert [r.run_id for r in list_runs(root)] == ["a-1", "b-2"]
        assert find_run(root, "last").run_id == "b-2"
        assert find_run(root, "a-1").argv == ["x"]
        with pytest.raises(JournalError):
            find_run(root, "nope")
        with pytest.raises(JournalError):
            find_run(tmp_path / "empty", "last")


class TestJobReconstruction:
    def test_rebuild_preserves_content_hash(self):
        _, jobs = build_graph()
        for job in jobs:
            # through a JSON round trip, as the journal stores it
            describe = json.loads(json.dumps(job.describe()))
            rebuilt = job_from_description(describe)
            assert rebuilt == job
            assert rebuilt.job_hash == job.job_hash

    def test_rebuild_with_params_and_overrides(self):
        job = SimJob(
            kind="timing", workload="apache", length=100, seed=3,
            system=SystemConfig.tiny(),
            prefetcher=PrefetcherSpec(kind="stems", with_stride=True,
                                      overrides=(("depth", 4),)),
            params=(("window", 16),),
        )
        describe = json.loads(json.dumps(job.describe()))
        assert job_from_description(describe).job_hash == job.job_hash

    def test_record_jobs_verifies_hashes(self, tmp_path):
        root = tmp_path / "runs"
        _, jobs = build_graph()
        journal = RunJournal.create(root, header={"argv": []}, fsync=False)
        for job in jobs[:2]:
            journal.job_scheduled(job)
        journal.close()
        record = load_run(root / journal.run_id)
        assert [j.job_hash for j in record.jobs()] == [
            j.job_hash for j in jobs[:2]
        ]
        # a forged description no longer matches its recorded hash
        first = next(iter(record.scheduled))
        record.scheduled[first] = dict(record.scheduled[first], seed=99)
        with pytest.raises(JournalError):
            record.jobs()


# -- engine integration ------------------------------------------------------


class TestEngineJournaling:
    def test_every_job_scheduled_and_completed(self, tmp_path):
        graph, jobs = build_graph()
        root = runs_root(tmp_path / "cache")
        journal = RunJournal.create(root, header={"argv": []}, fsync=False)
        with Engine(cache_dir=tmp_path / "cache", journal=journal) as engine:
            engine.run(graph)
        journal.finish("clean")
        record = load_run(root / journal.run_id)
        hashes = {j.job_hash for j in jobs}
        assert set(record.scheduled) == hashes
        assert set(record.completed) == hashes
        assert all(src == "executed" for src in record.completed.values())
        assert not record.incomplete()
        # the journaled shard refs exist on disk
        events, _, _ = read_journal(root / journal.run_id / "journal.jsonl")
        shards = [e["shard"] for e in events
                  if e["event"] == "job_completed"]
        assert all(Path(s).is_file() for s in shards)

    def test_cache_hits_journal_as_cache_sourced(self, tmp_path):
        graph, jobs = build_graph()
        with Engine(cache_dir=tmp_path / "cache") as engine:
            engine.run(graph)
        root = runs_root(tmp_path / "cache")
        journal = RunJournal.create(root, header={"argv": []}, fsync=False)
        graph2, _ = build_graph()
        with Engine(cache_dir=tmp_path / "cache", journal=journal) as engine:
            engine.run(graph2)
        assert engine.stats.cache_hits == len(jobs)
        journal.finish("clean")
        record = load_run(root / journal.run_id)
        assert set(record.completed.values()) == {"cache"}

    def test_preset_interrupt_stops_before_any_execution(self, tmp_path):
        graph, _ = build_graph()
        stop = threading.Event()
        stop.set()
        with Engine(cache_dir=tmp_path / "cache", interrupt=stop) as engine:
            with pytest.raises(RunInterrupted):
                engine.run(graph)
        assert engine.stats.executed == 0

    def test_interrupt_mid_run_keeps_completed_results(self, tmp_path):
        graph, jobs = build_graph()
        stop = threading.Event()
        root = runs_root(tmp_path / "cache")
        journal = RunJournal.create(root, header={"argv": []}, fsync=False)
        fired = {"at": None}
        original = journal.job_completed

        def complete_then_stop(job, **kwargs):
            original(job, **kwargs)
            if journal.jobs_completed == 3 and fired["at"] is None:
                fired["at"] = 3
                stop.set()

        journal.job_completed = complete_then_stop
        with Engine(cache_dir=tmp_path / "cache", journal=journal,
                    interrupt=stop) as engine:
            with pytest.raises(RunInterrupted) as info:
                engine.run(graph)
        journal.finish("interrupted")
        assert info.value.completed == 3
        record = load_run(root / journal.run_id)
        assert len(record.completed) == 3
        assert len(record.incomplete()) == len(jobs) - 3
        # and a fresh engine over the same cache finishes only the rest
        graph2, _ = build_graph()
        with Engine(cache_dir=tmp_path / "cache") as engine2:
            engine2.run(graph2)
        assert engine2.stats.cache_hits == 3
        assert engine2.stats.executed == len(jobs) - 3


class TestKillSpecParsing:
    def test_kill_at_job_is_a_known_kind(self):
        plan = FaultPlan.parse("kill_at_job@index=3")
        assert plan.spec("kill_at_job").param("index") == "3"

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("kill_at_everything")


# -- runner subprocess semantics --------------------------------------------


def _runner_env(**extra: str) -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_VAR, None)
    env.update(extra)
    return env


def _sweep_args(tmp_path: Path, cache: str) -> "list[str]":
    return [
        sys.executable, "-m", "repro.experiments", "fig9", "--small",
        "--workloads", "apache", "em3d", "--length", "2000",
        "--cache-dir", str(tmp_path / cache),
        "--trace-store", str(tmp_path / "traces"),
    ]


def _wait_for_journal(cache_dir: Path, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if list((cache_dir / "runs").glob("*/journal.jsonl")):
            return
        time.sleep(0.05)
    raise AssertionError("runner never created a journal")


class TestInterruptionSemantics:
    def test_sigint_exits_3_with_sealed_resumable_journal(self, tmp_path):
        proc = subprocess.Popen(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{ENV_VAR: "stall:1@secs=0.4"}),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        _wait_for_journal(tmp_path / "cache")
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=60)[1]
        assert proc.returncode == 3, stderr
        record = find_run(runs_root(tmp_path / "cache"), "last")
        assert record.finished_status == "interrupted"
        assert record.manifest["status"] == "interrupted"
        assert record.resumable()
        assert "--resume" in stderr
        # the journal was flushed: scheduled events are all present
        assert len(record.scheduled) == 8

    def test_second_sigint_hard_aborts(self, tmp_path):
        proc = subprocess.Popen(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{ENV_VAR: "stall:1@secs=5"}),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        _wait_for_journal(tmp_path / "cache")
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=60)[1]
        assert proc.returncode == 130, stderr
        # the journal is deliberately left unsealed -> crashed, resumable
        record = find_run(runs_root(tmp_path / "cache"), "last")
        assert record.finished_status is None
        assert record.status() == "crashed"
        assert record.resumable()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_then_resume_is_bit_identical(self, tmp_path, jobs):
        clean = subprocess.run(
            _sweep_args(tmp_path, "clean-cache") + [
                "--jobs", str(jobs),
                "--export", "json",
                "--export-dir", str(tmp_path / "clean-out"),
            ],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stderr
        baseline = (tmp_path / "clean-out" / "fig9.json").read_bytes()

        if jobs > 1:
            # the parallel supervisor dispatches its whole batch up
            # front, so a mid-batch kill finds nothing durable yet;
            # pre-warm half the sweep so the parallel crash lands on a
            # run with prior durable state (cache-sourced completions)
            warm = subprocess.run(
                [a if a != "em3d" else "apache"
                 for a in _sweep_args(tmp_path, "cache")],
                env=_runner_env(), capture_output=True, text=True,
            )
            assert warm.returncode == 0, warm.stderr
            kill_index = 2
        else:
            kill_index = 5
        killed = subprocess.run(
            _sweep_args(tmp_path, "cache") + ["--jobs", str(jobs)],
            env=_runner_env(**{ENV_VAR: f"kill_at_job@index={kill_index}"}),
            capture_output=True, text=True,
        )
        assert killed.returncode == KILL_EXIT_CODE, killed.stderr
        record = find_run(runs_root(tmp_path / "cache"), "last")
        assert record.status() == "crashed"
        durable = len(record.completed)
        assert 0 < durable < len(record.scheduled)

        resumed = subprocess.run(
            _sweep_args(tmp_path, "cache") + [
                "--jobs", str(jobs), "--resume", "last",
                "--export", "json",
                "--export-dir", str(tmp_path / "resume-out"),
            ],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert f"{durable} of 8 journaled jobs already durable" in (
            resumed.stderr
        )
        recovered = (tmp_path / "resume-out" / "fig9.json").read_bytes()
        assert recovered == baseline
        # only the lost jobs re-executed
        new_record = find_run(runs_root(tmp_path / "cache"), "last")
        assert new_record.run_id != record.run_id
        assert sorted(new_record.completed.values()).count("cache") == (
            durable
        )
        # the superseded run points at its successor
        old = load_run(record.directory)
        assert old.manifest["resumed_by"] == new_record.run_id

    def test_list_runs_reports_status(self, tmp_path):
        killed = subprocess.run(
            _sweep_args(tmp_path, "cache"),
            env=_runner_env(**{ENV_VAR: "kill_at_job@index=5"}),
            capture_output=True, text=True,
        )
        assert killed.returncode == KILL_EXIT_CODE, killed.stderr
        listing = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--list-runs",
             "--cache-dir", str(tmp_path / "cache")],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert listing.returncode == 0
        assert "crashed (resumable)" in listing.stdout
        # dispatch 5 is the first job of the second fan-out group, so
        # exactly the first group's 4 jobs were journaled durable
        assert "4/8 jobs" in listing.stdout

    def test_resume_unknown_run_exits_2(self, tmp_path):
        (tmp_path / "cache").mkdir()
        result = subprocess.run(
            _sweep_args(tmp_path, "cache") + ["--resume", "nope"],
            env=_runner_env(), capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "no run 'nope'" in result.stderr


class TestRemovedExecutionFlags:
    """``--kernel`` and ``--broadcast`` are gone from the parser, but
    journals written while they existed may still carry them."""

    ARGV = ["fig9", "--small", "--workloads", "apache", "em3d",
            "--length", "2000"]

    def test_resume_of_a_journal_carrying_them(self, tmp_path, capsys):
        assert runner_main(self.ARGV + [
            "--cache-dir", str(tmp_path / "clean"), "--export", "json",
            "--export-dir", str(tmp_path / "clean-out"),
        ]) == 0
        baseline = (tmp_path / "clean-out" / "fig9.json").read_bytes()

        # the journal an older version wrote for a run that died after
        # half of its jobs: the recorded argv carries both flags
        cache = tmp_path / "cache"
        config = make_config(build_parser().parse_args(self.ARGV))
        graph = JobGraph()
        fig9.declare(config, graph)
        jobs = list(graph)
        journal = RunJournal.create(runs_root(cache), header={
            "argv": self.ARGV + ["--kernel", "python", "--broadcast=off",
                                 "--cache-dir", str(cache)],
            "experiments": ["fig9"],
            "config": config_hash(config),
        }, fsync=False)
        for job in jobs:
            journal.job_scheduled(job)
        half = JobGraph()
        for job in jobs[:len(jobs) // 2]:
            half.add(job)
        with Engine(cache_dir=cache, journal=journal) as engine:
            engine.run(half)
        journal.close()
        capsys.readouterr()

        assert runner_main([
            "--resume", journal.run_id, "--cache-dir", str(cache),
            "--export", "json", "--export-dir", str(tmp_path / "resumed"),
        ]) == 0
        err = capsys.readouterr().err
        assert f"{len(half)} of {len(jobs)} journaled jobs already" in err
        assert (tmp_path / "resumed" / "fig9.json").read_bytes() == baseline
        resumed = find_run(runs_root(cache), "last")
        assert resumed.run_id != journal.run_id
        assert not {"--kernel", "python", "--broadcast=off"} & set(
            resumed.argv
        )

    @pytest.mark.parametrize("flag, value", [
        ("--kernel", "python"), ("--broadcast", "off"),
    ])
    def test_fresh_command_line_rejects_them(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            runner_main(self.ARGV + ["--no-cache", flag, value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
