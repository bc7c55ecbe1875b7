"""The distributed (file-based work queue) campaign backend.

Covers the spool claim protocol, the worker lifecycle, fault injection
(dead workers, corrupted cache entries, tampered specs) and the
end-to-end CLI path with real ``campaign-worker`` subprocesses.
"""

import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import CampaignExecutor, RunCache, RunTask
from repro.experiments.queue_backend import (
    QueueBackend,
    _claim_next_task,
    _Spool,
    run_worker,
)
from repro.experiments.results import ProgressEvent
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.io import (
    append_progress_event,
    load_progress_events,
    load_task_spec,
    save_samples_json,
    save_task_spec,
    task_spec_to_dict,
)
from repro.models.features import HostRole
from repro.telemetry.stabilization import StabilizationRule

SEED = 20150901

_SCENARIO = MigrationScenario("CPULOAD-SOURCE", "queue/lv/1vm", live=True, load_vm_count=1)


def _task(run_start: int = 0, seed: int = SEED, scenario: MigrationScenario = _SCENARIO) -> RunTask:
    settings = RunnerSettings()
    rule = StabilizationRule()
    key = RunCache.scenario_key(seed, scenario, settings, None, rule)
    return RunTask(
        seed=seed, settings=settings, migration_config=None,
        stabilization=rule, scenario=scenario, run_start=run_start, key=key,
    )


def _backend(tmp_path: pathlib.Path, **options) -> QueueBackend:
    options.setdefault("poll_interval", 0.02)
    return QueueBackend(tmp_path / "spool", RunCache(tmp_path / "cache"), **options)


def _start_workers(tmp_path: pathlib.Path, n: int = 1, **kwargs) -> list[threading.Thread]:
    """Worker loops in daemon threads (same claim/heartbeat protocol as
    separate processes; the subprocess path is covered by TestCliEndToEnd)."""
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("idle_exit_s", 60.0)
    threads = []
    for i in range(n):
        thread = threading.Thread(
            target=run_worker,
            args=(tmp_path / "spool", tmp_path / "cache"),
            kwargs={**kwargs, "worker_id": f"w{i}"},
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


class TestSpoolProtocol:
    def test_submit_writes_loadable_spec(self, tmp_path):
        backend = _backend(tmp_path)
        task = _task()
        backend.submit(task)
        spec_path = backend.spool.task_path(task.task_id)
        assert spec_path.exists()
        assert load_task_spec(spec_path) == task
        assert backend.stats.tasks_submitted == 1

    def test_task_id_requires_cache_key(self, tmp_path):
        keyless = RunTask(
            seed=SEED, settings=RunnerSettings(), migration_config=None,
            stabilization=StabilizationRule(), scenario=_SCENARIO, run_start=0,
        )
        with pytest.raises(ExperimentError, match="need a cache key"):
            _backend(tmp_path).submit(keyless)

    def test_claim_is_exclusive(self, tmp_path):
        backend = _backend(tmp_path)
        backend.submit(_task())
        first = _claim_next_task(backend.spool)
        assert first is not None and first.parent == backend.spool.claims
        assert _claim_next_task(backend.spool) is None  # nothing left to claim

    def test_claim_survives_utime_failure(self, tmp_path, monkeypatch):
        """Regression: a transient ``utime`` failure after a successful
        rename abandoned the claimed spec — stranded in ``claims/`` with
        no worker executing it — until the stale scan requeued it."""
        backend = _backend(tmp_path)
        backend.submit(_task())

        def _fail(path, *args, **kwargs):
            raise OSError("transient filesystem error")

        monkeypatch.setattr(os, "utime", _fail)
        claim = _claim_next_task(backend.spool)
        assert claim is not None and claim.exists()
        assert claim.parent == backend.spool.claims

    def test_claim_skipped_when_requeued_in_race_window(self, tmp_path, monkeypatch):
        """When the coordinator requeued the spec before the lease could
        be refreshed, the claim file is gone — the worker must move on."""
        backend = _backend(tmp_path)
        backend.submit(_task())

        def _fail_and_requeue(path, *args, **kwargs):
            target = pathlib.Path(path)
            target.rename(backend.spool.tasks / target.name)
            raise OSError("claim vanished underneath us")

        monkeypatch.setattr(os, "utime", _fail_and_requeue)
        assert _claim_next_task(backend.spool) is None

    def test_validation(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        with pytest.raises(ExperimentError):
            QueueBackend(tmp_path / "spool", cache, poll_interval=0.0)
        with pytest.raises(ExperimentError):
            QueueBackend(tmp_path / "spool", cache, stale_timeout=-1.0)

    def test_executor_requires_cache_and_spool(self, tmp_path):
        with pytest.raises(ExperimentError):
            CampaignExecutor(ScenarioRunner(seed=SEED), backend="queue",
                             spool_dir=tmp_path / "spool")
        with pytest.raises(ExperimentError):
            CampaignExecutor(ScenarioRunner(seed=SEED), backend="queue",
                             cache_dir=tmp_path / "cache")

    def test_runner_rejects_unknown_parallel_string(self):
        with pytest.raises(ExperimentError):
            ScenarioRunner(seed=SEED).run_campaign([_SCENARIO], parallel="cluster")


class TestCapacityIntrospection:
    def test_no_workers_means_unknown(self, tmp_path):
        backend = _backend(tmp_path)
        assert backend.active_workers() == 0
        assert backend.capacity is None

    def test_fresh_heartbeats_counted_stale_ignored(self, tmp_path):
        backend = _backend(tmp_path, worker_fresh_s=5.0)
        fresh = backend.spool.workers / "fresh.json"
        stale = backend.spool.workers / "stale.json"
        for beat in (fresh, stale):
            beat.write_text("{}", encoding="utf-8")
        os.utime(stale, (time.time() - 600, time.time() - 600))
        assert backend.active_workers() == 1
        assert backend.capacity == 1


class TestWorkerLifecycle:
    def test_worker_executes_and_deposits(self, tmp_path):
        backend = _backend(tmp_path)
        futures = [backend.submit(_task(i)) for i in range(2)]
        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.2,
        )
        assert stats.claimed == 2 and stats.executed == 2 and stats.failed == 0
        done = backend.wait(futures)
        assert done == set(futures)
        expected = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
        (got,) = futures[0].result()
        assert np.array_equal(got.source_trace.watts, expected.source_trace.watts)

    def test_worker_short_circuits_cached_tasks(self, tmp_path):
        backend = _backend(tmp_path)
        task = _task()
        run = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
        backend.cache.put(task.key, run, key_payload=task.key_payload())
        backend.submit(task)
        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.2,
        )
        assert stats.claimed == 1 and stats.cached == 1 and stats.executed == 0

    def test_stop_sentinel_exits_immediately(self, tmp_path):
        spool = _Spool(tmp_path / "spool")
        spool.stop.touch()
        stats = run_worker(tmp_path / "spool", tmp_path / "cache")
        assert stats.claimed == 0

    def test_max_tasks_bounds_the_worker(self, tmp_path):
        backend = _backend(tmp_path)
        for i in range(3):
            backend.submit(_task(i))
        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, max_tasks=1,
        )
        assert stats.claimed == 1
        assert len(list(backend.spool.tasks.glob("*.json"))) == 2

    def test_idle_exit_without_work(self, tmp_path):
        started = time.monotonic()
        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.1,
        )
        assert stats.claimed == 0
        assert time.monotonic() - started < 10.0

    def test_heartbeat_file_removed_on_exit(self, tmp_path):
        run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.1, worker_id="wX",
        )
        assert not (tmp_path / "spool" / "workers" / "wX.json").exists()

    def test_shutdown_writes_stop_sentinel(self, tmp_path):
        backend = _backend(tmp_path, stop_workers_on_shutdown=True)
        backend.shutdown()
        assert backend.spool.stop.exists()


class TestFaultInjection:
    def test_stale_claim_requeued_and_completed(self, tmp_path):
        """A worker killed mid-task: its claim's heartbeat goes stale, the
        coordinator requeues it, and a live worker finishes the run."""
        backend = _backend(tmp_path, stale_timeout=0.5)
        future = backend.submit(_task())
        # Simulate the dead worker: the spec is claimed but never
        # heartbeated again (mtime frozen in the past).
        claim = _claim_next_task(backend.spool)
        assert claim is not None
        long_ago = time.time() - 60
        os.utime(claim, (long_ago, long_ago))

        workers = _start_workers(tmp_path, heartbeat_s=0.1)
        try:
            done = backend.wait([future])
        finally:
            backend.spool.stop.touch()
            for thread in workers:
                thread.join(timeout=30)
        assert done == {future}
        assert backend.stats.tasks_requeued == 1
        assert [run.run_index for run in future.result()] == [0]

    def test_fresh_claim_not_requeued(self, tmp_path):
        backend = _backend(tmp_path, stale_timeout=3600.0)
        backend.submit(_task())
        claim = _claim_next_task(backend.spool)
        backend._requeue_stale_claims()
        assert claim.exists()
        assert backend.stats.tasks_requeued == 0

    def test_corrupt_cache_result_recomputed(self, tmp_path):
        """A result file that fails validation is discarded and the task is
        respooled — garbage must never resolve a future."""
        backend = _backend(tmp_path)
        task = _task()
        future = backend.submit(task)
        # The spec vanishes (as after a claim) and a corrupt result appears.
        backend.spool.task_path(task.task_id).unlink()
        run_path = backend.cache._run_path(task.key, task.run_start)
        run_path.parent.mkdir(parents=True, exist_ok=True)
        run_path.write_bytes(b"not a pickle")

        workers = _start_workers(tmp_path)
        try:
            done = backend.wait([future])
        finally:
            backend.spool.stop.touch()
            for thread in workers:
                thread.join(timeout=30)
        assert done == {future}
        assert backend.stats.corrupt_results == 1
        assert backend.stats.tasks_resubmitted == 1
        expected = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
        assert np.array_equal(future.result()[0].source_trace.watts,
                              expected.source_trace.watts)

    def test_tampered_spec_fails_the_task(self, tmp_path):
        """A spec whose embedded key does not hash back to its contents is
        refused by the worker and surfaces as a campaign error."""
        backend = _backend(tmp_path)
        task = _task()
        future = backend.submit(task)
        tampered = RunTask(
            seed=task.seed + 1,  # contents no longer match task.key
            settings=task.settings, migration_config=None,
            stabilization=task.stabilization, scenario=task.scenario,
            run_start=task.run_start, key=task.key,
        )
        save_task_spec(tampered, backend.spool.task_path(task.task_id))

        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.2,
        )
        assert stats.failed == 1
        done = backend.wait([future])
        assert done == {future}
        with pytest.raises(ExperimentError, match="does not match"):
            future.result()

    def test_retired_single_run_spec_fails_the_task(self, tmp_path):
        """A spec in the retired single-run schema (as an older
        coordinator would spool it) is failed with a ``failed/`` record
        naming the wanted schema; the worker keeps serving."""
        backend = _backend(tmp_path)
        task = _task()
        future = backend.submit(task)
        spec = task_spec_to_dict(task)
        del spec["run_start"], spec["run_count"]
        spec.update(schema="wavm3-taskspec/1", run_index=0)
        backend.spool.task_path(task.task_id).write_text(
            json.dumps(spec), encoding="utf-8"
        )
        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.2,
        )
        assert stats.claimed == 1 and stats.failed == 1 and stats.executed == 0
        record = json.loads(
            backend.spool.failure_path(task.task_id).read_text(encoding="utf-8")
        )
        assert record["kind"] == "PersistenceError"
        assert "want 'wavm3-taskspec/3'" in record["error"]
        assert not backend.spool.claim_path(task.task_id).exists()
        backend.wait([future])
        with pytest.raises(ExperimentError, match="taskspec/3"):
            future.result()

    def test_spec_with_retired_compute_setting_fails_the_task(self, tmp_path):
        """A spec whose settings still carry ``compute`` (as an older
        coordinator would spool it) is failed as a malformed task spec;
        the worker keeps serving the next task."""
        backend = _backend(tmp_path)
        stale, fresh = _task(0), _task(1)
        stale_future = backend.submit(stale)
        spec = task_spec_to_dict(stale)
        spec["settings"]["compute"] = "numpy"
        backend.spool.task_path(stale.task_id).write_text(
            json.dumps(spec), encoding="utf-8"
        )
        fresh_future = backend.submit(fresh)
        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.2,
        )
        assert stats.claimed == 2 and stats.failed == 1 and stats.executed == 1
        record = json.loads(
            backend.spool.failure_path(stale.task_id).read_text(encoding="utf-8")
        )
        assert record["kind"] == "PersistenceError"
        assert "malformed task spec" in record["error"]
        assert "'compute'" in record["error"]
        assert backend.wait([stale_future, fresh_future]) == {stale_future, fresh_future}
        with pytest.raises(ExperimentError, match="malformed task spec"):
            stale_future.result()
        (run,) = fresh_future.result()
        assert run.run_index == 1

    def test_unreadable_spec_fails_the_task(self, tmp_path):
        backend = _backend(tmp_path)
        task = _task()
        future = backend.submit(task)
        backend.spool.task_path(task.task_id).write_text("{", encoding="utf-8")
        stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, idle_exit_s=0.2,
        )
        assert stats.failed == 1
        backend.wait([future])
        with pytest.raises(ExperimentError):
            future.result()

    def test_resubmission_clears_stale_failure_record(self, tmp_path):
        """A failure record from a previous campaign must not poison a
        fresh submission of the same task."""
        backend = _backend(tmp_path)
        task = _task()
        backend.spool.failure_path(task.task_id).write_text(
            json.dumps({"error": "old failure"}), encoding="utf-8"
        )
        future = backend.submit(task)
        run_worker(tmp_path / "spool", tmp_path / "cache",
                   poll_interval=0.02, idle_exit_s=0.2)
        done = backend.wait([future])
        assert done == {future}
        assert future.exception() is None

    def test_corrupted_cache_entry_recomputed_in_campaign(self, tmp_path):
        """Acceptance: hash-mismatching cache bytes are recomputed, and the
        campaign result is still bit-identical to the serial path."""
        scenarios = [_SCENARIO]
        serial = ScenarioRunner(seed=SEED).run_campaign(scenarios, min_runs=2, max_runs=2)

        def queue_campaign():
            executor = CampaignExecutor(
                ScenarioRunner(seed=SEED), backend="queue",
                cache_dir=tmp_path / "cache", spool_dir=tmp_path / "spool",
                queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
            )
            workers = _start_workers(tmp_path)
            try:
                result = executor.run_campaign(scenarios, min_runs=2, max_runs=2)
            finally:
                executor._backend.shutdown()
                for thread in workers:
                    thread.join(timeout=30)
            return executor, result

        first_executor, _ = queue_campaign()
        assert first_executor.stats.runs_executed == 2
        for path in (tmp_path / "cache").rglob("run-*.pkl"):
            path.write_bytes(b"\x80\x04corrupted")
        (tmp_path / "spool" / "stop").unlink()

        second_executor, result = queue_campaign()
        assert second_executor.stats.runs_cached == 0
        assert second_executor.stats.runs_executed == 2  # recomputed, not returned
        for sa, sb in zip(serial.scenario_results, result.scenario_results):
            assert np.array_equal(
                sa.total_energies_j(HostRole.SOURCE),
                sb.total_energies_j(HostRole.SOURCE),
            )


class TestBatchFaultInjection:
    """A worker dies mid-batch: deposits survive, only the holes recompute."""

    _FAST = dict(
        min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
        check_interval_s=1.0,
    )
    _BATCH_SCENARIO = MigrationScenario(
        "CPULOAD-SOURCE", "queue/batch/nl", live=False, load_vm_count=0
    )

    def _batch_task(self, run_count: int = 5) -> RunTask:
        settings = RunnerSettings(**self._FAST)
        rule = StabilizationRule()
        key = RunCache.scenario_key(SEED, self._BATCH_SCENARIO, settings, None, rule)
        return RunTask(
            seed=SEED, settings=settings, migration_config=None,
            stabilization=rule, scenario=self._BATCH_SCENARIO,
            run_start=0, run_count=run_count, key=key,
        )

    def _serve_one(self, tmp_path, worker_id: str) -> tuple:
        """A worker thread whose WorkerStats survive the join."""
        box = {}

        def serve():
            box["stats"] = run_worker(
                tmp_path / "spool", tmp_path / "cache",
                poll_interval=0.02, heartbeat_s=0.1,
                idle_exit_s=60.0, worker_id=worker_id,
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return thread, box

    def test_worker_killed_mid_batch_preserves_deposits_and_refills_holes(
        self, tmp_path
    ):
        """Acceptance: kill a queue worker mid-batch.  The per-run cache
        entries and progress lines it already flushed survive the requeue,
        the rescuing worker recomputes only the holes, the final results
        are bit-identical to an uninterrupted batch, and a warm rerun
        performs zero runs."""
        task = self._batch_task(run_count=5)
        backend = _backend(tmp_path, stale_timeout=0.5)
        future = backend.submit(task)

        # The doomed worker claims the batch and deposits runs 0 and 1 —
        # cache entries and progress lines hit the spool per run, not per
        # batch, so a mid-batch death loses only the unfinished tail.  Then
        # it dies: the claim's heartbeat freezes in the past.
        claim = _claim_next_task(backend.spool)
        assert claim is not None
        cache = RunCache(tmp_path / "cache")
        runner = ScenarioRunner(seed=task.seed, settings=task.settings)
        deposited = runner.run_batch(task.scenario, [0, 1])
        for run in deposited:
            cache.put(task.key, run, key_payload=task.key_payload())
            append_progress_event(
                ProgressEvent(
                    task_id=task.run_id(run.run_index),
                    scenario=task.scenario.label, run_index=run.run_index,
                    worker="doomed", runs_completed=run.run_index + 1,
                    samples=1, wall_s=1.0, samples_per_s=1.0, at=time.time(),
                ),
                backend.spool.progress / "doomed.ndjson",
            )
        long_ago = time.time() - 60
        os.utime(claim, (long_ago, long_ago))

        rescue, box = self._serve_one(tmp_path, "rescue")
        try:
            done = backend.wait([future])
        finally:
            backend.spool.stop.touch()
            rescue.join(timeout=60)
        assert done == {future}
        assert backend.stats.tasks_requeued == 1

        # The rescuer served the dead worker's deposits from cache and
        # simulated only the three holes.  (The cached count can exceed 2
        # by a multiple of 5: a coordinator poll that starts before the
        # last deposit and finishes after the claim unlinks resubmits the
        # spec, and the worker serves the extra copy entirely from cache —
        # nothing re-executes either way.)
        stats = box["stats"]
        assert stats.executed == 3
        assert stats.cached % 5 == 2
        results = future.result()
        assert [run.run_index for run in results] == [0, 1, 2, 3, 4]

        # The recovery is bit-identical to an uninterrupted batch.
        reference = ScenarioRunner(
            seed=SEED, settings=RunnerSettings(**self._FAST)
        ).run_batch(task.scenario, range(5))
        for expected, actual in zip(reference, results):
            assert expected.timeline.ms == actual.timeline.ms
            assert expected.timeline.bytes_total == actual.timeline.bytes_total
            assert np.array_equal(
                expected.source_trace.watts, actual.source_trace.watts
            )
            assert np.array_equal(
                expected.features.times, actual.features.times
            )

        # The dead worker's progress lines survived in its sidecar, and
        # the drained stream counts each run exactly once (the rescuer's
        # re-announcements supersede, never duplicate).
        survived = load_progress_events(backend.spool.progress / "doomed.ndjson")
        assert [event.run_index for event in survived] == [0, 1]
        drained = backend.drain_progress()
        assert sorted(event.run_index for event in drained) == [0, 1, 2, 3, 4]

        # Warm rerun: every index is already deposited, so the whole batch
        # short-circuits to cache hits and zero runs execute.  The worker
        # runs synchronously (max_tasks=1) before the coordinator polls,
        # otherwise the coordinator resolves straight from the cache and
        # the spec is never claimed at all.
        backend.spool.stop.unlink()
        warm_future = backend.submit(task)
        warm_stats = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, heartbeat_s=0.1, max_tasks=1, worker_id="warm",
        )
        assert warm_stats.executed == 0
        assert warm_stats.cached == 5
        done = backend.wait([warm_future])
        assert done == {warm_future}
        assert [run.run_index for run in warm_future.result()] == [0, 1, 2, 3, 4]


class TestCliEndToEnd:
    def _spawn_worker(self, tmp_path, idx: int) -> subprocess.Popen:
        src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "--cache-dir", str(tmp_path / "cache"),
                "campaign-worker",
                "--spool-dir", str(tmp_path / "spool"),
                "--poll-interval", "0.05",
                "--idle-exit", "60",
                "--worker-id", f"cli-w{idx}",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_two_worker_processes_bit_identical_then_all_cache_hits(self, tmp_path):
        """Acceptance: a queue campaign served by >= 2 real worker
        processes is byte-identical to serial, and a rerun performs zero
        new simulation runs."""
        scenarios = [
            _SCENARIO,
            MigrationScenario("MEMLOAD-VM", "queue/lv/dr55", live=True, dirty_percent=55.0),
        ]
        serial = ScenarioRunner(seed=SEED).run_campaign(scenarios, min_runs=2, max_runs=2)

        workers = [self._spawn_worker(tmp_path, i) for i in range(2)]
        runner = ScenarioRunner(seed=SEED)
        try:
            result = runner.run_campaign(
                scenarios, min_runs=2, max_runs=2, parallel="queue",
                cache_dir=tmp_path / "cache", spool_dir=tmp_path / "spool",
                queue_options={"poll_interval": 0.05, "stop_workers_on_shutdown": True},
            )
        finally:
            for proc in workers:
                try:
                    proc.wait(timeout=120)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert all(proc.returncode == 0 for proc in workers), [
            proc.stdout.read() for proc in workers
        ]
        assert runner.last_executor_stats.runs_executed == 4
        for sa, sb in zip(serial.scenario_results, result.scenario_results):
            assert sa.scenario == sb.scenario
            for role in (HostRole.SOURCE, HostRole.TARGET):
                assert np.array_equal(
                    sa.total_energies_j(role), sb.total_energies_j(role)
                )
            for ra, rb in zip(sa.runs, sb.runs):
                assert np.array_equal(ra.source_trace.watts, rb.source_trace.watts)
                assert ra.timeline.bytes_total == rb.timeline.bytes_total

        # Warm rerun: all cache hits, zero new simulation runs, no workers.
        rerun_runner = ScenarioRunner(seed=SEED)
        rerun = rerun_runner.run_campaign(
            scenarios, min_runs=2, max_runs=2, parallel="queue",
            cache_dir=tmp_path / "cache", spool_dir=tmp_path / "spool",
            queue_options={"poll_interval": 0.05},
        )
        assert rerun_runner.last_executor_stats.runs_executed == 0
        assert rerun_runner.last_executor_stats.runs_cached == 4
        for sa, sb in zip(result.scenario_results, rerun.scenario_results):
            assert np.array_equal(
                sa.total_energies_j(HostRole.SOURCE),
                sb.total_energies_j(HostRole.SOURCE),
            )


class TestClockSkew:
    """Spool freshness must be judged on the *file server's* clock.

    When the coordinator's clock disagrees with the filesystem serving the
    spool (NFS server, container host), naive ``time.time() - mtime`` ages
    are wrong by the skew: a coordinator running ahead sees every fresh
    claim as stale (requeue storms, duplicated work) and every live worker
    as dead.  The backend measures the skew with a probe file once per
    poll interval and offsets all ages, clamping negatives to zero.
    """

    def _fake_clock(self, monkeypatch, offset: float) -> None:
        real = time.time
        monkeypatch.setattr(time, "time", lambda: real() + offset)

    def test_coordinator_ahead_keeps_fresh_claims(self, tmp_path, monkeypatch):
        backend = _backend(tmp_path, stale_timeout=60.0)
        backend.submit(_task())
        claim = _claim_next_task(backend.spool)
        assert claim is not None
        # Coordinator clock jumps an hour ahead of the file server.
        self._fake_clock(monkeypatch, 3600.0)
        backend._skew_measured_at = None  # force a re-probe under the skew
        backend._requeue_stale_claims()
        assert claim.exists()
        assert backend.stats.tasks_requeued == 0

    def test_coordinator_ahead_still_sees_live_workers(self, tmp_path, monkeypatch):
        backend = _backend(tmp_path, worker_fresh_s=5.0)
        beat = backend.spool.workers / "w0.json"
        beat.write_text("{}", encoding="utf-8")
        self._fake_clock(monkeypatch, 3600.0)
        backend._skew_measured_at = None
        assert backend.active_workers() == 1
        assert backend.capacity == 1

    def test_genuine_staleness_detected_despite_skew(self, tmp_path, monkeypatch):
        """The skew offset must not mask claims that really are dead."""
        backend = _backend(tmp_path, stale_timeout=0.5)
        backend.submit(_task())
        claim = _claim_next_task(backend.spool)
        long_ago = time.time() - 60
        os.utime(claim, (long_ago, long_ago))
        self._fake_clock(monkeypatch, 3600.0)
        backend._skew_measured_at = None
        backend._requeue_stale_claims()
        assert not claim.exists()
        assert backend.stats.tasks_requeued == 1

    def test_coordinator_behind_clamps_negative_ages(self, tmp_path, monkeypatch):
        """File-server mtimes in the coordinator's future age as zero."""
        backend = _backend(tmp_path, stale_timeout=60.0, worker_fresh_s=5.0)
        backend.submit(_task())
        claim = _claim_next_task(backend.spool)
        beat = backend.spool.workers / "w0.json"
        beat.write_text("{}", encoding="utf-8")
        self._fake_clock(monkeypatch, -3600.0)
        backend._skew_measured_at = None
        backend._requeue_stale_claims()
        assert claim.exists()
        assert backend.stats.tasks_requeued == 0
        assert backend.active_workers() == 1

    def test_probe_memoized_per_poll_interval(self, tmp_path, monkeypatch):
        import repro.experiments.queue_backend as qb

        backend = _backend(tmp_path, poll_interval=60.0)
        probes = []
        real_measure = qb._measure_spool_skew
        monkeypatch.setattr(
            qb, "_measure_spool_skew",
            lambda root: (probes.append(root), real_measure(root))[1],
        )
        backend._spool_now()
        backend._spool_now()
        backend._spool_now()
        assert len(probes) == 1  # one probe per poll interval, not per call

    def test_probe_failure_degrades_to_zero_skew(self, tmp_path):
        from repro.experiments.queue_backend import _measure_spool_skew

        assert _measure_spool_skew(tmp_path / "does-not-exist") == 0.0

    def test_spool_gc_honours_file_server_clock(self, tmp_path, monkeypatch):
        from repro.experiments.queue_backend import spool_gc

        backend = _backend(tmp_path)
        backend.submit(_task())  # fresh spec, mtime = file-server now
        stale = backend.spool.failed / "old.json"
        stale.write_text("{}", encoding="utf-8")
        long_ago = time.time() - 7200
        os.utime(stale, (long_ago, long_ago))
        # An hour of coordinator skew must not make the fresh spec eligible.
        self._fake_clock(monkeypatch, 3600.0)
        report = spool_gc(tmp_path / "spool", max_age_s=3600.0)
        assert report["files"] == ["failed/old.json"]
        assert report["failures"] == 1
        assert list(backend.spool.tasks.glob("*.json"))  # fresh spec survived


class TestDuplicatePublication:
    """Two workers finishing the same batch: a stale-lease requeue or an
    executor retry re-spools a chunk whose first worker was only slow,
    so a second worker can legitimately execute and publish a task that
    already completed.  The cache deposit must be idempotent, progress
    accounting must stay single per run, and both publications must
    serialise byte-identical samples."""

    def _batch_task(self, run_count: int = 2) -> RunTask:
        settings = RunnerSettings()
        rule = StabilizationRule()
        key = RunCache.scenario_key(SEED, _SCENARIO, settings, None, rule)
        return RunTask(
            seed=SEED, settings=settings, migration_config=None,
            stabilization=rule, scenario=_SCENARIO,
            run_start=0, run_count=run_count, key=key,
        )

    def test_speculated_batch_finished_by_two_workers(self, tmp_path):
        backend = _backend(tmp_path)
        task = self._batch_task(run_count=2)

        first = backend.submit(task)
        stats1 = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, max_tasks=1, idle_exit_s=60.0, worker_id="w1",
        )
        assert stats1.claimed == 1 and stats1.executed == 2

        # The duplicate: the coordinator re-submits the same chunk (same
        # task id, same cache key), as a retry does, to another lane.
        second = backend.submit(task)
        stats2 = run_worker(
            tmp_path / "spool", tmp_path / "cache",
            poll_interval=0.02, max_tasks=1, idle_exit_s=60.0, worker_id="w2",
        )
        # Idempotent deposit: w2 short-circuits from the cache entries
        # w1 already wrote — nothing is simulated twice.
        assert stats2.claimed == 1 and stats2.executed == 0
        assert stats2.cached > 0

        done = backend.wait([first, second])
        assert done == {first, second}
        runs1, runs2 = first.result(), second.result()
        assert [r.run_index for r in runs1] == [0, 1]

        # Byte-identical samples JSON from either publication.
        roles = (HostRole.SOURCE, HostRole.TARGET)
        save_samples_json(
            [run.sample_for(role) for run in runs1 for role in roles],
            tmp_path / "first.json",
        )
        save_samples_json(
            [run.sample_for(role) for run in runs2 for role in roles],
            tmp_path / "second.json",
        )
        assert (tmp_path / "first.json").read_bytes() == (
            tmp_path / "second.json"
        ).read_bytes()

        # Single progress accounting: both workers announced the same
        # per-run progress ids; the drain keeps the latest per task id.
        events = backend.drain_progress()
        ids = [event.task_id for event in events]
        assert len(ids) == len(set(ids)) == 2
        assert sorted(event.run_index for event in events) == [0, 1]
