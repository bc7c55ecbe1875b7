"""The network (HTTP task handoff) campaign backend.

Covers the wire protocol (claim/heartbeat/result/status), the worker
lifecycle, fault injection (killed workers, malformed result uploads,
tampered specs) and the end-to-end CLI path with real
``campaign-worker --connect`` subprocesses.
"""

import json
import pathlib
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import CampaignExecutor, RunCache, RunTask
from repro.experiments.http_backend import (
    HttpBackend,
    fetch_status,
    parse_address,
    run_http_worker,
)
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.io import dump_run_batch_bytes, dump_run_result_bytes, save_samples_json
from repro.models.features import HostRole
from repro.telemetry.stabilization import StabilizationRule

SEED = 20150901

_SCENARIO = MigrationScenario("CPULOAD-SOURCE", "http/lv/1vm", live=True, load_vm_count=1)


def _task(run_start: int = 0, seed: int = SEED) -> RunTask:
    settings = RunnerSettings()
    rule = StabilizationRule()
    key = RunCache.scenario_key(seed, _SCENARIO, settings, None, rule)
    return RunTask(
        seed=seed, settings=settings, migration_config=None,
        stabilization=rule, scenario=_SCENARIO, run_start=run_start, key=key,
    )


@pytest.fixture
def backend(tmp_path):
    instance = HttpBackend("127.0.0.1:0", RunCache(tmp_path / "cache"))
    yield instance
    instance.shutdown()


def _post(url: str, path: str, data: bytes, content_type: str, headers=None) -> dict:
    request = urllib.request.Request(
        url + path,
        data=data,
        headers={"Content-Type": content_type, **(headers or {})},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _claim(url: str, worker: str = "t") -> dict:
    return _post(url, "/claim", json.dumps({"worker": worker}).encode(),
                 "application/json")


def _start_workers(url: str, n: int = 1, **kwargs) -> list:
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("offline_grace_s", 10.0)
    kwargs.setdefault("idle_exit_s", 60.0)
    threads = []
    for i in range(n):
        thread = threading.Thread(
            target=run_http_worker, args=(url,),
            kwargs={**kwargs, "worker_id": f"w{i}"}, daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


class TestAddressParsing:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert parse_address(("localhost", 80)) == ("localhost", 80)

    @pytest.mark.parametrize("bad", ["8765", "host:", ":-1", "host:eight", "", "host:99999"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ExperimentError, match="HOST:PORT"):
            parse_address(bad)


class TestWireProtocol:
    def test_claim_empty_queue(self, backend):
        reply = _claim(backend.url)
        assert reply == {"task_id": None, "stop": False}

    def test_claim_leases_oldest_task(self, backend):
        tasks = [_task(0), _task(1)]
        for task in tasks:
            backend.submit(task)
        reply = _claim(backend.url)
        assert reply["task_id"] == tasks[0].task_id
        assert reply["spec"]["run_start"] == 0 and reply["spec"]["run_count"] == 1
        assert reply["lease_timeout_s"] == backend.stale_timeout
        # The second claim gets the second task; the third gets nothing.
        assert _claim(backend.url)["task_id"] == tasks[1].task_id
        assert _claim(backend.url)["task_id"] is None

    def test_heartbeat_renews_only_own_lease(self, backend):
        backend.submit(_task())
        reply = _claim(backend.url, worker="holder")
        beat = lambda worker: _post(  # noqa: E731
            backend.url, "/heartbeat",
            json.dumps({"worker": worker, "task_id": reply["task_id"]}).encode(),
            "application/json",
        )
        assert beat("holder")["ok"] is True
        assert beat("impostor")["ok"] is False

    def test_status_counts(self, backend):
        for index in range(2):
            backend.submit(_task(index))
        _claim(backend.url, worker="wA")
        status = fetch_status(backend.url)
        assert status["tasks_open"] == 1
        assert status["tasks_leased"] == 1
        assert status["tasks_submitted"] == 2
        assert status["workers_live"] == 1
        assert status["workers"][0]["worker"] == "wA"
        assert backend.capacity == 1

    def test_unknown_endpoint_404(self, backend):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(backend.url, "/nope", b"{}", "application/json")
        assert info.value.code == 404

    def test_claim_without_worker_id_400(self, backend):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(backend.url, "/claim", b"{}", "application/json")
        assert info.value.code == 400

    def test_result_for_unknown_task_404(self, backend):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(backend.url, "/result", b"x", "application/octet-stream",
                  headers={"X-Wavm3-Task-Id": "nope-0000", "X-Wavm3-Worker": "t"})
        assert info.value.code == 404

    def test_validation(self, tmp_path):
        with pytest.raises(ExperimentError):
            HttpBackend("127.0.0.1:0", RunCache(tmp_path / "c"), stale_timeout=0.0)

    def test_executor_requires_cache_and_serve(self, tmp_path):
        with pytest.raises(ExperimentError, match="cache_dir"):
            CampaignExecutor(ScenarioRunner(seed=SEED), backend="http",
                             serve="127.0.0.1:0")
        with pytest.raises(ExperimentError, match="serve address"):
            CampaignExecutor(ScenarioRunner(seed=SEED), backend="http",
                             cache_dir=tmp_path / "cache")

    def test_runner_rejects_unknown_parallel_string(self):
        with pytest.raises(ExperimentError):
            ScenarioRunner(seed=SEED).run_campaign([_SCENARIO], parallel="grpc")


class TestWorkerLifecycle:
    def test_worker_executes_and_uploads(self, backend):
        futures = [backend.submit(_task(i)) for i in range(2)]
        stats = run_http_worker(
            backend.url, poll_interval=0.02, idle_exit_s=0.2, worker_id="w0",
        )
        assert stats.claimed == 2 and stats.executed == 2 and stats.failed == 0
        done = backend.wait(futures)
        assert done == set(futures)
        expected = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
        (got,) = futures[0].result()
        assert np.array_equal(got.source_trace.watts, expected.source_trace.watts)
        # The coordinator deposited the upload into its own cache.
        task = futures[0].task
        assert backend.cache.get(task.key, task.scenario, 0) is not None

    def test_worker_stops_on_stop_signal(self, backend):
        backend.stop_workers_on_shutdown = True
        backend._state.stopping = True
        stats = run_http_worker(backend.url, poll_interval=0.02, worker_id="w0")
        assert stats.claimed == 0
        backend.stop_workers_on_shutdown = False  # let the fixture shut down fast

    def test_worker_exits_when_coordinator_goes_away(self, tmp_path):
        backend = HttpBackend("127.0.0.1:0", RunCache(tmp_path / "cache"))
        url = backend.url
        threads = _start_workers(url, offline_grace_s=0.2)
        deadline = time.monotonic() + 30
        while backend.active_workers() < 1 and time.monotonic() < deadline:
            time.sleep(0.02)  # let the worker make first contact
        backend.shutdown()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

    def test_worker_rejects_wrong_url_immediately(self, backend):
        with pytest.raises(ExperimentError, match="campaign status"):
            run_http_worker(backend.url.rsplit(":", 1)[0] + ":1", worker_id="w0")

    def test_max_tasks_bounds_the_worker(self, backend):
        for index in range(3):
            backend.submit(_task(index))
        stats = run_http_worker(
            backend.url, poll_interval=0.02, max_tasks=1, worker_id="w0",
        )
        assert stats.claimed == 1
        assert fetch_status(backend.url)["tasks_open"] == 2


class TestFaultInjection:
    def test_stale_lease_requeued_and_completed(self, tmp_path):
        """A worker killed mid-task: its lease's heartbeat goes stale, the
        coordinator requeues the task, and a live worker finishes it."""
        # The phantom "dead" client never polls again, so shutdown waits
        # out the whole stop grace for it: keep that short.
        backend = HttpBackend(
            "127.0.0.1:0", RunCache(tmp_path / "cache"), stale_timeout=0.3,
            stop_grace_s=0.5,
        )
        workers = []
        try:
            future = backend.submit(_task())
            # Simulate the dead worker: claim the task, never heartbeat.
            assert _claim(backend.url, worker="dead")["task_id"] is not None
            workers = _start_workers(backend.url, heartbeat_s=0.1)
            done = backend.wait([future])
            assert done == {future}
            assert backend.stats.tasks_requeued >= 1
            assert [run.run_index for run in future.result()] == [0]
        finally:
            backend.stop_workers_on_shutdown = True
            backend.shutdown()
            for thread in workers:
                thread.join(timeout=30)

    def test_malformed_result_upload_rejected_and_recomputed(self, tmp_path):
        """Garbage POSTed to /result must never resolve a future: the
        coordinator answers 400, requeues the task, and a real worker
        recomputes the correct result."""
        # The phantom "liar" client never polls again, so shutdown waits
        # out the whole stop grace for it: keep that short.
        backend = HttpBackend(
            "127.0.0.1:0", RunCache(tmp_path / "cache"), stop_grace_s=0.5,
        )
        workers = []
        try:
            task = _task()
            future = backend.submit(task)
            reply = _claim(backend.url, worker="liar")
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(backend.url, "/result", b"not a pickle",
                      "application/octet-stream",
                      headers={"X-Wavm3-Task-Id": reply["task_id"],
                               "X-Wavm3-Worker": "liar"})
            assert info.value.code == 400
            assert backend.stats.corrupt_results == 1
            assert not future.done()
            assert fetch_status(backend.url)["tasks_open"] == 1  # requeued

            workers = _start_workers(backend.url)
            done = backend.wait([future])
            assert done == {future}
            expected = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
            assert np.array_equal(future.result()[0].source_trace.watts,
                                  expected.source_trace.watts)
        finally:
            backend.stop_workers_on_shutdown = True
            backend.shutdown()
            for thread in workers:
                thread.join(timeout=30)

    def test_bare_run_result_upload_rejected_and_reopened(self, backend):
        """``/result`` takes one ``wavm3-runbatch/1`` envelope per task,
        whatever its run count: a bare ``wavm3-runresult/2`` body (the
        retired single-run upload) answers 400 and re-opens the task."""
        future = backend.submit(_task(run_start=0))
        reply = _claim(backend.url, worker="old")
        run = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(backend.url, "/result", dump_run_result_bytes(run),
                  "application/octet-stream",
                  headers={"X-Wavm3-Task-Id": reply["task_id"],
                           "X-Wavm3-Worker": "old"})
        assert info.value.code == 400
        assert "wavm3-runbatch/1" in json.loads(info.value.read())["error"]
        assert backend.stats.corrupt_results == 1
        assert not future.done()
        status = fetch_status(backend.url)
        assert status["tasks_open"] == 1 and status["tasks_leased"] == 0
        assert _claim(backend.url, worker="next")["task_id"] == reply["task_id"]

    def test_mismatched_result_upload_rejected(self, backend):
        """An upload whose run is for a different task is refused even
        though it is a perfectly valid pickle."""
        task = _task(run_start=0)
        backend.submit(task)
        reply = _claim(backend.url)
        wrong = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=1)
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(backend.url, "/result", dump_run_batch_bytes([wrong]),
                  "application/octet-stream",
                  headers={"X-Wavm3-Task-Id": reply["task_id"],
                           "X-Wavm3-Worker": "t"})
        assert info.value.code == 400
        assert backend.stats.corrupt_results == 1

    def test_failure_report_surfaces_centrally(self, backend):
        future = backend.submit(_task())
        reply = _claim(backend.url)
        _post(backend.url, "/result",
              json.dumps({"error": "boom", "traceback": "tb"}).encode(),
              "application/json",
              headers={"X-Wavm3-Task-Id": reply["task_id"], "X-Wavm3-Worker": "t"})
        done = backend.wait([future])
        assert done == {future}
        with pytest.raises(ExperimentError, match="boom"):
            future.result()
        assert fetch_status(backend.url)["tasks_failed"] == 1

    def test_late_valid_result_after_requeue_retires_the_task(self, tmp_path):
        """A slow (not dead) worker whose lease expired still delivers the
        identical bytes: the upload resolves the future AND removes the
        requeued task from the open queue — no redundant re-execution."""
        backend = HttpBackend(
            "127.0.0.1:0", RunCache(tmp_path / "cache"), stale_timeout=0.1,
        )
        try:
            future = backend.submit(_task())
            reply = _claim(backend.url, worker="slow")
            time.sleep(0.3)
            # /status is read-only: it reports the expired lease but must
            # not requeue it.
            probe = fetch_status(backend.url)
            assert probe["leases_stale"] == 1 and probe["tasks_open"] == 0
            with backend._state.lock:
                backend._requeue_stale_locked()  # the sweep /claim would run
            assert fetch_status(backend.url)["tasks_open"] == 1  # requeued
            run = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
            _post(backend.url, "/result", dump_run_batch_bytes([run]),
                  "application/octet-stream",
                  headers={"X-Wavm3-Task-Id": reply["task_id"],
                           "X-Wavm3-Worker": "slow"})
            assert future.done() and future.result()[0].run_index == 0
            status = fetch_status(backend.url)
            assert status["tasks_open"] == 0 and status["tasks_completed"] == 1
            # A fresh claim must not be handed the completed task.
            assert _claim(backend.url, worker="next")["task_id"] is None
        finally:
            backend.shutdown()

    def test_zombie_failure_report_ignored_after_requeue(self, tmp_path):
        """A worker that lost its lease reporting failure must not abort a
        campaign whose task was requeued to someone else."""
        backend = HttpBackend(
            "127.0.0.1:0", RunCache(tmp_path / "cache"), stale_timeout=0.1,
        )
        try:
            future = backend.submit(_task())
            reply = _claim(backend.url, worker="zombie")
            time.sleep(0.3)
            with backend._state.lock:
                backend._requeue_stale_locked()
            assert fetch_status(backend.url)["tasks_open"] == 1  # requeued
            ignored = _post(backend.url, "/result",
                            json.dumps({"error": "OOM-killed"}).encode(),
                            "application/json",
                            headers={"X-Wavm3-Task-Id": reply["task_id"],
                                     "X-Wavm3-Worker": "zombie"})
            assert ignored.get("ignored") is True
            assert not future.done()
            # The healthy re-execution path still works (freeze the sweep
            # so B's fresh lease cannot itself expire mid-assertion).
            backend.stale_timeout = 3600.0
            assert _claim(backend.url, worker="B")["task_id"] == reply["task_id"]
        finally:
            backend.shutdown()

    def test_zombie_garbage_upload_does_not_evict_live_lease(self, tmp_path):
        """Garbage from a worker that lost its lease answers 400 without
        re-opening the task or evicting the live holder's lease."""
        backend = HttpBackend(
            "127.0.0.1:0", RunCache(tmp_path / "cache"), stale_timeout=0.1,
        )
        try:
            backend.submit(_task())
            reply = _claim(backend.url, worker="zombie")
            time.sleep(0.3)
            with backend._state.lock:
                backend._requeue_stale_locked()  # requeue the stale lease
            backend.stale_timeout = 3600.0  # keep B's lease alive below
            assert _claim(backend.url, worker="B")["task_id"] == reply["task_id"]
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(backend.url, "/result", b"garbage",
                      "application/octet-stream",
                      headers={"X-Wavm3-Task-Id": reply["task_id"],
                               "X-Wavm3-Worker": "zombie"})
            assert info.value.code == 400
            status = fetch_status(backend.url)
            assert status["tasks_leased"] == 1  # B's lease survives
            assert status["tasks_open"] == 0
        finally:
            backend.shutdown()

    def test_tampered_spec_fails_the_task(self, tmp_path):
        """A spec whose embedded key does not hash back to its contents is
        refused by the worker and surfaces as a campaign error."""
        backend = HttpBackend("127.0.0.1:0", RunCache(tmp_path / "cache"))
        try:
            task = _task()
            tampered = RunTask(
                seed=task.seed + 1,  # contents no longer match task.key
                settings=task.settings, migration_config=None,
                stabilization=task.stabilization, scenario=task.scenario,
                run_start=task.run_start, key=task.key,
            )
            future = backend.submit(tampered)
            stats = run_http_worker(
                backend.url, poll_interval=0.02, idle_exit_s=0.2, worker_id="w0",
            )
            assert stats.failed == 1
            backend.wait([future])
            with pytest.raises(ExperimentError, match="does not match"):
                future.result()
        finally:
            backend.shutdown()


class TestCampaignBitIdentity:
    def test_http_campaign_matches_serial(self, tmp_path):
        scenarios = [_SCENARIO]
        serial = ScenarioRunner(seed=SEED).run_campaign(scenarios, min_runs=2, max_runs=2)

        runner = ScenarioRunner(seed=SEED)
        executor = CampaignExecutor(
            runner, backend="http", cache_dir=tmp_path / "cache",
            serve="127.0.0.1:0",
            http_options={"stop_workers_on_shutdown": True, "stop_grace_s": 5.0},
        )
        workers = _start_workers(executor.serve_url, n=2)
        result = executor.run_campaign(scenarios, min_runs=2, max_runs=2)
        for thread in workers:
            thread.join(timeout=30)
        assert executor.stats.runs_executed == 2
        for sa, sb in zip(serial.scenario_results, result.scenario_results):
            for role in (HostRole.SOURCE, HostRole.TARGET):
                assert np.array_equal(
                    sa.total_energies_j(role), sb.total_energies_j(role)
                )
            for ra, rb in zip(sa.runs, sb.runs):
                assert np.array_equal(ra.source_trace.watts, rb.source_trace.watts)

        # Warm rerun against the coordinator's cache: zero simulation
        # runs, no workers needed.
        second = CampaignExecutor(
            ScenarioRunner(seed=SEED), backend="http",
            cache_dir=tmp_path / "cache", serve="127.0.0.1:0",
        )
        rerun = second.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert second.stats.runs_executed == 0
        assert second.stats.runs_cached == 2
        for sa, sb in zip(result.scenario_results, rerun.scenario_results):
            assert np.array_equal(
                sa.total_energies_j(HostRole.SOURCE),
                sb.total_energies_j(HostRole.SOURCE),
            )


class TestCliEndToEnd:
    def _popen(self, args: list) -> subprocess.Popen:
        src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def test_serve_plus_two_worker_subprocesses(self, tmp_path):
        """Acceptance: `campaign --serve` + two `campaign-worker --connect`
        subprocesses produce results byte-identical to the serial backend,
        and a warm rerun against the coordinator's cache performs zero
        simulation runs."""
        from repro.experiments.design import memload_vm_scenarios

        coordinator = self._popen([
            "--seed", str(SEED), "--cache-dir", str(tmp_path / "cache"),
            "campaign", "--serve", "127.0.0.1:0", "--stop-workers",
            "--experiment", "memload-vm", "--runs", "2",
        ])
        first_line = coordinator.stdout.readline()
        assert "serving campaign tasks on http://" in first_line, first_line
        url = first_line.strip().rsplit(" ", 1)[-1]

        workers = [
            self._popen(["campaign-worker", "--connect", url,
                         "--poll-interval", "0.05", "--worker-id", f"cli-w{i}"])
            for i in range(2)
        ]
        assert coordinator.wait(timeout=600) == 0
        for proc in workers:
            try:
                assert proc.wait(timeout=120) == 0, proc.stdout.read()
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        out = coordinator.stdout.read()
        assert "backend=http" in out
        assert "12 runs kept (12 executed, 0 from cache" in out

        # Byte-identity: the wire-transported runs in the coordinator's
        # cache replay exactly what the serial path computes.
        scenario = memload_vm_scenarios("m")[0]
        serial = ScenarioRunner(seed=SEED).run_campaign([scenario], min_runs=2, max_runs=2)
        runner = ScenarioRunner(seed=SEED)
        cached = runner.run_campaign(
            [scenario], min_runs=2, max_runs=2, cache_dir=tmp_path / "cache",
        )
        assert runner.last_executor_stats.runs_executed == 0
        assert runner.last_executor_stats.runs_cached == 2
        for sa, sb in zip(serial.scenario_results, cached.scenario_results):
            assert sa.scenario == sb.scenario
            for role in (HostRole.SOURCE, HostRole.TARGET):
                assert np.array_equal(
                    sa.total_energies_j(role), sb.total_energies_j(role)
                )
            for ra, rb in zip(sa.runs, sb.runs):
                assert np.array_equal(ra.source_trace.watts, rb.source_trace.watts)
                assert ra.timeline.bytes_total == rb.timeline.bytes_total

        # Warm rerun through the HTTP backend itself: all cache hits,
        # zero simulation runs, no workers needed.
        warm = self._popen([
            "--seed", str(SEED), "--cache-dir", str(tmp_path / "cache"),
            "campaign", "--serve", "127.0.0.1:0",
            "--experiment", "memload-vm", "--runs", "2",
        ])
        assert warm.wait(timeout=600) == 0
        assert "(0 executed, 12 from cache" in warm.stdout.read()


class TestDuplicatePublication:
    """Two workers publishing one task over the wire — the lease holder
    and a worker that got it through a stale-lease requeue or a retry:
    the first valid upload resolves the future, the identical second
    upload is acknowledged as a duplicate, and the cache deposit is
    idempotent."""

    def test_second_valid_upload_acknowledged_as_duplicate(self, backend, tmp_path):
        task = _task(run_start=0)
        future = backend.submit(task)
        reply = _claim(backend.url, worker="w1")
        expected = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)
        body = dump_run_batch_bytes([expected])

        # A worker that lost the race to claim still holds the right
        # bytes (runs are deterministic): its upload wins the task.
        first = _post(backend.url, "/result", body, "application/octet-stream",
                      headers={"X-Wavm3-Task-Id": reply["task_id"],
                               "X-Wavm3-Worker": "w2"})
        assert first == {"ok": True}
        assert future.done() and future.worker == "w2"

        # The lease holder finishes later and publishes the same result.
        second = _post(backend.url, "/result", body, "application/octet-stream",
                       headers={"X-Wavm3-Task-Id": reply["task_id"],
                                "X-Wavm3-Worker": "w1"})
        assert second == {"ok": True, "duplicate": True}

        # One completion, one (idempotent) cache deposit.
        status = fetch_status(backend.url)
        assert status["tasks_completed"] == 1
        assert status["tasks_open"] == 0 and status["tasks_leased"] == 0
        cached = backend.cache.get(task.key, _SCENARIO, 0)
        assert cached is not None

        # Whichever publication served a consumer, the samples JSON is
        # byte-identical to the locally computed run's.
        roles = (HostRole.SOURCE, HostRole.TARGET)
        paths = []
        for tag, run in (
            ("expected", expected), ("cached", cached), ("future", future.result()[0]),
        ):
            path = tmp_path / f"{tag}.json"
            save_samples_json([run.sample_for(role) for role in roles], path)
            paths.append(path)
        reference = paths[0].read_bytes()
        assert all(path.read_bytes() == reference for path in paths[1:])

    def test_status_surfaces_cache_counters(self, backend):
        task = _task(run_start=0)
        backend.submit(task)
        reply = _claim(backend.url, worker="w1")
        body = dump_run_batch_bytes(
            [ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=0)]
        )
        _post(backend.url, "/result", body, "application/octet-stream",
              headers={"X-Wavm3-Task-Id": reply["task_id"],
                       "X-Wavm3-Worker": "w1"})
        cache = fetch_status(backend.url)["cache"]
        assert cache == backend.cache.counters()
        assert cache["bytes_written"] > 0
