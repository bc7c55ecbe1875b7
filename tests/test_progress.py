"""Campaign observability: live progress + janitor.

Covers the :class:`~repro.experiments.results.ProgressEvent` pipeline —
wire format round-trips, NDJSON sidecar tolerance, emission through both
kinds of backend (in-memory, spool sidecars), the
``campaign-status`` surfaces (including ``--follow``), the spool janitor
(``spool_gc`` / ``campaign --gc-spool``) and the ``bench --history``
perf-trajectory report.
"""

import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import CampaignExecutor
from repro.experiments.queue_backend import run_worker, spool_gc, spool_status
from repro.experiments.results import ProgressEvent
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.io import (
    PersistenceError,
    append_progress_event,
    load_progress_events,
    progress_event_from_dict,
    progress_event_to_dict,
)

FAST = dict(
    min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
    check_interval_s=1.0,
)

SCENARIO = MigrationScenario(
    "CPULOAD-SOURCE", "progress/nl/0vm", live=False, load_vm_count=0
)


def _event(**overrides) -> ProgressEvent:
    base = dict(
        task_id="abcd1234abcd1234-0002",
        scenario="progress/nl/0vm",
        run_index=2,
        worker="host-123",
        runs_completed=3,
        samples=1200,
        wall_s=0.25,
        samples_per_s=4800.0,
        at=1_700_000_000.0,
    )
    base.update(overrides)
    return ProgressEvent(**base)


def _runner(seed: int = 1) -> ScenarioRunner:
    return ScenarioRunner(seed=seed, settings=RunnerSettings(**FAST))


class TestProgressIo:
    def test_dict_round_trip(self):
        event = _event()
        assert progress_event_from_dict(progress_event_to_dict(event)) == event

    def test_schema_enforced(self):
        record = progress_event_to_dict(_event())
        record["schema"] = "wavm3-progress/99"
        with pytest.raises(PersistenceError):
            progress_event_from_dict(record)
        with pytest.raises(PersistenceError):
            progress_event_from_dict({"schema": "wavm3-progress/1"})  # fields missing

    def test_ndjson_round_trip(self, tmp_path):
        path = tmp_path / "w.ndjson"
        events = [_event(run_index=i, at=float(i)) for i in range(3)]
        for event in events:
            append_progress_event(event, path)
        assert load_progress_events(path) == events

    def test_ndjson_tolerates_torn_lines(self, tmp_path):
        path = tmp_path / "w.ndjson"
        append_progress_event(_event(run_index=0), path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": "wavm3-progress/1", "task_id": "torn')
        loaded = load_progress_events(path)
        assert len(loaded) == 1 and loaded[0].run_index == 0

    def test_ndjson_tolerates_tail_torn_mid_multibyte(self, tmp_path):
        """Regression: a reader racing a live appender can see the final
        line cut in the *middle of a multi-byte UTF-8 sequence*; the
        resulting ``UnicodeDecodeError`` must stay confined to that line
        instead of taking the whole status view down."""
        path = tmp_path / "w.ndjson"
        append_progress_event(_event(run_index=0), path)
        torn = json.dumps(
            {"schema": "wavm3-progress/1", "worker": "café"}, ensure_ascii=False
        ).encode("utf-8")
        with path.open("ab") as handle:
            handle.write(torn[: torn.index(b"\xc3") + 1])  # half of the 'é'
        loaded = load_progress_events(path)
        assert len(loaded) == 1 and loaded[0].run_index == 0

    def test_missing_file_reads_empty(self, tmp_path):
        assert load_progress_events(tmp_path / "absent.ndjson") == []


class TestExecutorProgress:
    def test_serial_campaign_reports_progress(self):
        executor = CampaignExecutor(_runner())
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        events = executor.progress_events
        assert len(events) == 2
        assert sorted(e.run_index for e in events) == [0, 1]
        assert all(e.samples > 0 and e.samples_per_s > 0 for e in events)
        assert all(e.scenario == SCENARIO.label for e in events)
        assert events[-1].runs_completed == 2

    def test_warm_cache_campaign_reports_nothing(self, tmp_path):
        executor = CampaignExecutor(_runner(), cache_dir=tmp_path / "cache")
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        assert len(executor.progress_events) == 2
        warm = CampaignExecutor(_runner(), cache_dir=tmp_path / "cache")
        warm.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        assert warm.progress_events == []  # cache hits are not worker runs

    def test_progress_reset_between_campaigns(self):
        executor = CampaignExecutor(_runner())
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        assert len(executor.progress_events) == 2


class TestQueueProgress:
    def _run_queue_campaign(self, tmp_path, worker_id="pw1"):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        executor = CampaignExecutor(
            _runner(), backend="queue", cache_dir=cache, spool_dir=spool,
            queue_options={"poll_interval": 0.05, "stop_workers_on_shutdown": True},
        )
        worker = threading.Thread(
            target=run_worker, args=(spool, cache),
            kwargs={"poll_interval": 0.05, "worker_id": worker_id, "idle_exit_s": 60.0},
        )
        worker.start()
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        worker.join()
        return executor, spool

    def test_worker_sidecar_feeds_executor_and_status(self, tmp_path):
        executor, spool = self._run_queue_campaign(tmp_path)
        events = executor.progress_events
        assert len(events) == 2
        assert {e.worker for e in events} == {"pw1"}
        assert [e.runs_completed for e in events] == [1, 2]
        status = spool_status(spool)
        assert status["progress_events"] == 2
        [entry] = status["progress"]
        assert entry["worker"] == "pw1"
        assert entry["runs_completed"] == 2
        assert entry["samples_per_s"] > 0
        assert entry["last_task"] == f"{SCENARIO.label}#1"

    def test_drain_ignores_other_campaigns_sidecar_lines(self, tmp_path):
        executor, spool = self._run_queue_campaign(tmp_path)
        # A stale line from some other campaign sharing the spool.
        append_progress_event(
            _event(task_id="ffffffffffffffff-0000", worker="pw1"),
            spool / "progress" / "pw1.ndjson",
        )
        assert len(executor._backend.drain_progress()) == 2

    def test_drain_dedups_reexecuted_tasks(self, tmp_path):
        """A stale-requeued task announced by two workers counts once."""
        executor, spool = self._run_queue_campaign(tmp_path)
        real_task_id = sorted(executor._backend._session_task_ids)[0]
        append_progress_event(
            _event(task_id=real_task_id, worker="pw2", at=time.time() + 1.0),
            spool / "progress" / "pw2.ndjson",
        )
        events = executor._backend.drain_progress()
        assert len(events) == 2  # still one event per run
        # the duplicate kept is the latest announcement
        assert any(e.task_id == real_task_id and e.worker == "pw2" for e in events)


class TestSpoolGc:
    def _seed_spool(self, tmp_path, age_s=7200.0):
        """A spool with one artifact of every kind, aged ``age_s``."""
        spool = tmp_path / "spool"
        for sub in ("tasks", "claims", "failed", "workers", "progress"):
            (spool / sub).mkdir(parents=True)
        files = [
            spool / "tasks" / "t1.json",
            spool / "claims" / "c1.json",
            spool / "failed" / "f1.json",
            spool / "workers" / "w1.json",
            spool / "progress" / "w1.ndjson",
            spool / "stop",
        ]
        for path in files:
            path.write_text("{}", encoding="utf-8")
            old = time.time() - age_s
            os.utime(path, (old, old))
        return spool, files

    def test_dry_run_lists_without_removing(self, tmp_path):
        spool, files = self._seed_spool(tmp_path)
        report = spool_gc(spool, max_age_s=3600.0, dry_run=True)
        assert report["dry_run"] is True
        assert report["removed_total"] == 6
        assert report["stop"] == 1
        assert all(path.exists() for path in files)
        assert "stop" in report["files"]

    def test_removes_old_keeps_young(self, tmp_path):
        spool, files = self._seed_spool(tmp_path)
        fresh = spool / "tasks" / "fresh.json"
        fresh.write_text("{}", encoding="utf-8")
        report = spool_gc(spool, max_age_s=3600.0)
        assert report["removed_total"] == 6
        assert all(not path.exists() for path in files)
        assert fresh.exists()
        # idempotent: nothing left above the age threshold
        assert spool_gc(spool, max_age_s=3600.0)["removed_total"] == 0

    def test_collects_orphaned_progress_and_stop_tmps(self, tmp_path):
        """Regression: the orphaned-tmp sweep skipped the progress dir
        and the stop sentinel's temp file at the spool root, so a worker
        dying mid-flush leaked ``*.tmp`` debris forever."""
        spool, _ = self._seed_spool(tmp_path)
        tmps = [
            spool / "progress" / "w1.ndjson.123.456.tmp",
            spool / "stop.123.456.tmp",
            spool / "tasks" / "t9.json.123.456.tmp",
        ]
        old = time.time() - 7200
        for path in tmps:
            path.write_text("", encoding="utf-8")
            os.utime(path, (old, old))
        report = spool_gc(spool, max_age_s=3600.0)
        assert all(not path.exists() for path in tmps)
        assert report["progress"] == 2  # sidecar + its orphaned tmp
        assert report["stop"] == 2      # sentinel + its orphaned tmp

    def test_missing_spool_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            spool_gc(tmp_path / "nope")
        with pytest.raises(ExperimentError):
            spool_gc(self._seed_spool(tmp_path)[0], max_age_s=-1.0)

    def test_gc_after_real_campaign(self, tmp_path):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        executor = CampaignExecutor(
            _runner(), backend="queue", cache_dir=cache, spool_dir=spool,
            queue_options={"poll_interval": 0.05, "stop_workers_on_shutdown": True},
        )
        worker = threading.Thread(
            target=run_worker, args=(spool, cache),
            kwargs={"poll_interval": 0.05, "worker_id": "gcw", "idle_exit_s": 60.0},
        )
        worker.start()
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        worker.join()
        report = spool_gc(spool, max_age_s=0.0)
        assert report["progress"] == 1 and report["stop"] == 1
        status = spool_status(spool)
        assert status["progress_events"] == 0 and not status["stopping"]


class TestCli:
    def test_campaign_summary_includes_progress(self, capsys):
        code = main([
            "--seed", "5", "campaign", "--experiment", "memload-vm", "--runs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "progress:" in out
        assert "runs reported by 1 worker" in out

    def test_campaign_status_renders_progress(self, tmp_path, capsys):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        executor = CampaignExecutor(
            _runner(), backend="queue", cache_dir=cache, spool_dir=spool,
            queue_options={"poll_interval": 0.05, "stop_workers_on_shutdown": True},
        )
        worker = threading.Thread(
            target=run_worker, args=(spool, cache),
            kwargs={"poll_interval": 0.05, "worker_id": "cliw", "idle_exit_s": 60.0},
        )
        worker.start()
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        worker.join()
        code = main(["campaign-status", "--spool-dir", str(spool)])
        out = capsys.readouterr().out
        assert code == 0
        assert "progress: 2 events" in out
        assert "cliw" in out and "2 runs" in out

    def test_campaign_status_follow_repeats(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        for sub in ("tasks", "claims", "failed", "workers", "progress"):
            (spool / sub).mkdir(parents=True)
        code = main([
            "campaign-status", "--spool-dir", str(spool),
            "--follow", "--interval", "0.05", "--updates", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("campaign status [queue]") == 3

    def test_campaign_gc_spool(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        (spool / "progress").mkdir(parents=True)
        sidecar = spool / "progress" / "w.ndjson"
        sidecar.write_text("{}\n", encoding="utf-8")
        old = time.time() - 7200
        os.utime(sidecar, (old, old))
        code = main([
            "campaign", "--gc-spool", "--spool-dir", str(spool), "--dry-run",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "would remove 1 files" in out and sidecar.exists()
        code = main(["campaign", "--gc-spool", "--spool-dir", str(spool)])
        out = capsys.readouterr().out
        assert code == 0
        assert "removed 1 files" in out and not sidecar.exists()

    def test_gc_spool_requires_spool_dir(self):
        with pytest.raises(ExperimentError):
            main(["campaign", "--gc-spool"])


class TestBenchHistory:
    def _payload(self, rev: str, speedup: float, stamp: float) -> dict:
        return {
            "schema": "wavm3-bench/1",
            "revision": rev,
            "quick": True,
            "generated_at": stamp,
            "results": {
                "campaign": {
                    "speedup": speedup,
                    "batched": {"runs_per_s": 2.5, "wall_s": 1.0, "samples_per_s": 1.0},
                    "events": {"runs_per_s": 0.5, "wall_s": 5.0, "samples_per_s": 1.0},
                },
                "consolidation": {"speedup": speedup + 1.0},  # a retired benchmark
                "simulator": {"events_per_s": 250000.0},
                "telemetry": {"speedup": speedup},
            },
        }

    def test_collect_and_render(self, tmp_path):
        from repro.bench import collect_bench_history, render_bench_history

        (tmp_path / "nested").mkdir()
        (tmp_path / "BENCH_bbb.json").write_text(
            json.dumps(self._payload("bbb", 6.0, 200.0)), encoding="utf-8"
        )
        (tmp_path / "nested" / "BENCH_aaa.json").write_text(
            json.dumps(self._payload("aaa", 5.0, 100.0)), encoding="utf-8"
        )
        (tmp_path / "BENCH_bad.json").write_text("not json", encoding="utf-8")
        (tmp_path / "BENCH_wrong.json").write_text(
            json.dumps({"schema": "other/1"}), encoding="utf-8"
        )
        history = collect_bench_history(tmp_path)
        assert [p["revision"] for p in history] == ["aaa", "bbb"]  # oldest first
        table = render_bench_history(history)
        assert "aaa" in table and "bbb" in table
        assert "5.00" in table and "6.00" in table  # campaign + telemetry speedups
        assert "7.00" not in table  # retired benchmarks get no column
        assert render_bench_history([]) == "no BENCH_<rev>.json files found"

    def test_history_renders_committed_payloads(self, tmp_path):
        """Every committed BENCH_<rev>.json renders one row — including
        payloads that carry results of since-retired benchmarks — and a
        metric a payload predates renders "-" instead of raising."""
        import pathlib

        from repro.bench import collect_bench_history, render_bench_history

        committed = collect_bench_history(
            pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
        )
        assert committed
        lines = render_bench_history(committed).splitlines()
        assert len(lines) == len(committed) + 2  # header + rule
        for payload, row in zip(committed, lines[2:]):
            assert row.startswith(str(payload["revision"]))

        old = self._payload("old", 5.0, 100.0)
        del old["results"]["telemetry"]
        (tmp_path / "BENCH_old.json").write_text(json.dumps(old), encoding="utf-8")
        table = render_bench_history(collect_bench_history(tmp_path))
        old_row = next(line for line in table.splitlines() if line.startswith("old"))
        assert old_row.split()[-1] == "-"  # no telemetry benchmark in the payload

    def test_cli_history(self, tmp_path, capsys):
        (tmp_path / "BENCH_ccc.json").write_text(
            json.dumps(self._payload("ccc", 5.5, 1.0)), encoding="utf-8"
        )
        code = main(["bench", "--history", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ccc" in out and "revision" in out


class TestPartialProgressMerge:
    """Worker-reported events supersede synthesized ones *per task id*:
    tasks only the coordinator saw (e.g. a worker crashed before its
    progress sidecar was read) keep their synthesized records instead of
    being dropped wholesale with the rest of the stream."""

    def test_worker_events_replace_only_their_task_ids(self):
        executor = CampaignExecutor(_runner())
        reported = _event(
            task_id=f"{SCENARIO.label}#0", scenario=SCENARIO.label,
            run_index=0, worker="w-remote", runs_completed=1, at=5.0,
        )
        executor._backend.drain_progress = lambda: [reported]
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        events = executor.progress_events
        assert len(events) == 2
        by_index = {e.run_index: e for e in events}
        # Run 0: the worker's own record won.
        assert by_index[0].worker == "w-remote"
        assert by_index[0] is reported
        # Run 1: nobody reported it, the synthesized record survives.
        assert by_index[1].worker == "serial"
        # The merged stream is re-sorted by timestamp.
        assert [e.at for e in events] == sorted(e.at for e in events)

    def test_full_worker_report_replaces_everything(self):
        executor = CampaignExecutor(_runner())
        reported = [
            _event(task_id=f"{SCENARIO.label}#{i}", scenario=SCENARIO.label,
                   run_index=i, worker="w-remote", runs_completed=i + 1,
                   at=float(i))
            for i in range(2)
        ]
        executor._backend.drain_progress = lambda: list(reported)
        executor.run_campaign([SCENARIO], min_runs=2, max_runs=2)
        assert executor.progress_events == reported
        assert all(e.worker == "w-remote" for e in executor.progress_events)
