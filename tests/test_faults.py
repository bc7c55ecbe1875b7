"""The campaign fault-tolerance layer: taxonomy, ledger, retry budgets,
quarantine and watchdogs.

Covers the ``repro.experiments.faults`` primitives, the ``wavm3-failure/1``
wire format, the executor's retry/quarantine state machine (with fake
backends so failures are deterministic and instant), the queue backend's
quarantine/stale-budget semantics, and the watchdog paths.
"""

import json
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import (
    CampaignExecutor,
    ExecutorBackend,
    RunCache,
    SerialBackend,
    _execute_task,
)
from repro.experiments.faults import (
    EXIT_DEGRADED,
    FailureLedger,
    RetryPolicy,
    RunFailure,
    RunTimeoutError,
    TaskFailure,
    failure_from_exception,
    run_with_deadline,
    stable_unit_interval,
    traceback_digest,
)
from repro.experiments.queue_backend import QueueBackend, _claim_next_task, spool_gc, spool_status
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.experiments.taskboard import TaskBoard
from repro.io import (
    PersistenceError,
    append_record,
    decode_record,
    encode_record,
    load_failure_records,
)
from repro.models.features import HostRole

SEED = 20150901
_HEALTHY = MigrationScenario("CPULOAD-SOURCE", "faults/lv/1vm", live=True, load_vm_count=1)
_POISON = MigrationScenario("CPULOAD-SOURCE", "faults/lv/0vm", live=True, load_vm_count=0)

#: Instant backoff for tests: no sleeping between retries.
_FAST_RETRY = RetryPolicy(base_s=1e-6, cap_s=1e-5, jitter=0.0)


def _failure(**overrides) -> RunFailure:
    base = dict(
        task_id="abcd-0000", scenario="faults/lv/1vm", run_indices=(0,),
        attempt=1, worker="w0", kind="ValueError", message="boom",
        traceback_digest="0123456789ab", wall_s=1.5, at=123.0, fate="retried",
    )
    base.update(overrides)
    return RunFailure(**base)


class TestPrimitives:
    def test_stable_unit_interval_deterministic_and_in_range(self):
        draws = [stable_unit_interval(f"tok:{i}") for i in range(256)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [stable_unit_interval(f"tok:{i}") for i in range(256)]
        assert len(set(draws)) > 200  # actually spread out, not collapsed

    def test_traceback_digest_stable_and_none_for_empty(self):
        assert traceback_digest(None) is None
        assert traceback_digest("") is None
        digest = traceback_digest("Traceback ...")
        assert digest == traceback_digest("Traceback ...")
        assert len(digest) == 12

    def test_run_failure_rejects_unknown_fate(self):
        with pytest.raises(ExperimentError, match="unknown failure fate"):
            _failure(fate="vanished")

    def test_with_fate_returns_updated_copy(self):
        failure = _failure()
        assert failure.with_fate("quarantined").fate == "quarantined"
        assert failure.fate == "retried"  # frozen original untouched

    def test_failure_from_exception_unwraps_task_failure(self):
        inner = _failure(worker="remote-w3", attempt=1)
        exc = TaskFailure("queue task abcd-0000 failed: boom", failure=inner)
        rebuilt = failure_from_exception(
            exc, task_id="ignored", scenario="ignored", run_indices=(9,),
            attempt=3, worker="coordinator",
        )
        assert rebuilt.worker == "remote-w3"  # backend's record wins...
        assert rebuilt.attempt == 3           # ...except the attempt count

    def test_failure_from_exception_builds_from_bare_exception(self):
        failure = failure_from_exception(
            ValueError("nope"), task_id="t", scenario="s", run_indices=(1, 2),
            attempt=2, worker="serial", traceback_text="tb", at=7.0,
        )
        assert failure.kind == "ValueError"
        assert failure.message == "nope"
        assert failure.run_indices == (1, 2)
        assert failure.at == 7.0
        assert failure.traceback_digest == traceback_digest("tb")


class TestRetryPolicy:
    def test_delays_deterministic_and_capped(self):
        policy = RetryPolicy(base_s=0.1, cap_s=1.0, jitter=0.25)
        delays = [policy.delay_s(a, "task-x") for a in range(1, 8)]
        assert delays == [policy.delay_s(a, "task-x") for a in range(1, 8)]
        assert all(d <= 1.0 * 1.25 for d in delays)
        assert all(d >= 0 for d in delays)

    def test_no_jitter_is_pure_exponential(self):
        policy = RetryPolicy(base_s=0.5, cap_s=30.0, jitter=0.0)
        assert [policy.delay_s(a) for a in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 4.0]
        assert policy.delay_s(10) == 30.0  # capped

    def test_jitter_decorrelates_tasks(self):
        policy = RetryPolicy(base_s=1.0, cap_s=8.0, jitter=0.5)
        assert policy.delay_s(1, "task-a") != policy.delay_s(1, "task-b")

    def test_validation(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ExperimentError):
            RetryPolicy(base_s=2.0, cap_s=1.0)
        with pytest.raises(ExperimentError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ExperimentError):
            RetryPolicy().delay_s(0)


class TestWireFormat:
    def test_round_trip(self):
        failure = _failure()
        assert decode_record(RunFailure, encode_record(failure)) == failure

    def test_round_trip_nullable_fields(self):
        failure = _failure(traceback_digest=None, wall_s=None)
        assert decode_record(RunFailure, encode_record(failure)) == failure

    def test_wrong_schema_rejected(self):
        payload = encode_record(_failure())
        payload["schema"] = "wavm3-failure/999"
        with pytest.raises(PersistenceError, match="schema"):
            decode_record(RunFailure, payload)

    def test_malformed_fate_becomes_persistence_error(self):
        payload = encode_record(_failure())
        payload["fate"] = "vanished"
        with pytest.raises(PersistenceError):
            decode_record(RunFailure, payload)

    def test_ndjson_append_and_load(self, tmp_path):
        path = tmp_path / "deep" / "failures.ndjson"
        first, second = _failure(), _failure(attempt=2, fate="quarantined")
        append_record(first, path)
        append_record(second, path)
        assert load_failure_records(path) == [first, second]

    def test_load_tolerates_torn_tail_and_missing_file(self, tmp_path):
        path = tmp_path / "failures.ndjson"
        assert load_failure_records(path) == []
        append_record(_failure(), path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": "wavm3-fail')  # writer died mid-line
        assert len(load_failure_records(path)) == 1


class TestFailureLedger:
    def test_records_persist_and_reset_truncates(self, tmp_path):
        path = tmp_path / "failures.ndjson"
        ledger = FailureLedger(path=path)
        ledger.record(_failure())
        ledger.record(_failure(attempt=2, fate="quarantined"))
        assert len(ledger) == 2
        assert len(load_failure_records(path)) == 2
        ledger.reset()
        assert len(ledger) == 0
        assert not path.exists()

    def test_memory_only_without_path(self):
        ledger = FailureLedger()
        ledger.record(_failure())
        assert ledger.counts_by_fate() == {"retried": 1}

    def test_summary_line(self, tmp_path):
        ledger = FailureLedger(path=tmp_path / "failures.ndjson")
        assert ledger.summary_line() == "failures: none"
        ledger.record(_failure())
        ledger.record(_failure(attempt=2))
        ledger.record(_failure(attempt=3, fate="quarantined"))
        line = ledger.summary_line()
        assert line.startswith("failures: 3 recorded (1 quarantined, 2 retried)")
        assert "failures.ndjson" in line


class TestWatchdog:
    def test_returns_value_inside_deadline(self):
        assert run_with_deadline(lambda: 42, 5.0) == 42
        assert run_with_deadline(lambda: 42, None) == 42  # no thread either

    def test_times_out(self):
        with pytest.raises(RunTimeoutError, match="wall-clock deadline"):
            run_with_deadline(lambda: time.sleep(5.0), 0.05, label="sleepy")

    def test_inner_exception_propagates(self):
        def _boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            run_with_deadline(_boom, 5.0)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ExperimentError):
            run_with_deadline(lambda: 1, 0.0)

    def test_execute_task_watchdog_trips_on_slow_task(self):
        class _SlowTask:
            scenario = _HEALTHY
            run_count = 1

            def execute(self, on_run=None):
                time.sleep(5.0)

        with pytest.raises(RunTimeoutError):
            _execute_task(_SlowTask(), run_timeout=0.05)


class _PoisonBackend(SerialBackend):
    """Serial execution, except tasks of one scenario fail their first
    ``fail_times`` attempts (``None`` = always).  A 2-run wave is one
    task (``<label>#0x2``)."""

    name = "poison"

    def __init__(self, poison_label: str, fail_times=None, exc_factory=None):
        super().__init__()
        self.poison_label = poison_label
        self.fail_times = fail_times
        self.exc_factory = exc_factory or (lambda: ExperimentError("injected failure"))
        self.attempts: dict = {}
        self.quarantined: list = []

    def submit(self, task) -> Future:
        if task.scenario.label == self.poison_label:
            token = task.task_id
            self.attempts[token] = self.attempts.get(token, 0) + 1
            if self.fail_times is None or self.attempts[token] <= self.fail_times:
                future = Future()
                future.set_exception(self.exc_factory())
                return future
        return super().submit(task)

    def quarantine(self, task) -> bool:
        self.quarantined.append(task.task_id)
        return True


class _HangBackend(ExecutorBackend):
    """Futures that never resolve: forces the campaign deadline path."""

    name = "hang"

    def submit(self, task) -> Future:
        return Future()

    def shutdown(self) -> None:
        pass


class TestExecutorRetries:
    def _executor(self, backend, **kwargs) -> CampaignExecutor:
        kwargs.setdefault("retry_policy", _FAST_RETRY)
        return CampaignExecutor(
            ScenarioRunner(seed=SEED), backend=backend, **kwargs
        )

    def test_transient_failure_retried_to_success_bit_identical(self):
        backend = _PoisonBackend(_POISON.label, fail_times=1)
        executor = self._executor(backend, max_retries=3)
        result = executor.run_campaign([_POISON, _HEALTHY], min_runs=2, max_runs=2)

        assert not executor.stats.degraded
        assert executor.stats.tasks_retried == 1  # one retry of the poisoned wave
        assert executor.ledger.counts_by_fate() == {"retried": 1}
        assert backend.attempts == {f"{_POISON.label}#0x2": 2}

        # Retried runs are byte-identical to the never-failed path.
        serial = ScenarioRunner(seed=SEED).run_campaign(
            [_POISON, _HEALTHY], min_runs=2, max_runs=2
        )
        for sa, sb in zip(serial.scenario_results, result.scenario_results):
            assert np.array_equal(
                sa.total_energies_j(HostRole.SOURCE),
                sb.total_energies_j(HostRole.SOURCE),
            )

    def test_default_budget_raises_original_exception(self):
        backend = _PoisonBackend(_POISON.label)
        executor = self._executor(backend)  # max_retries=1, on_failure="raise"
        with pytest.raises(ExperimentError, match="injected failure"):
            executor.run_campaign([_POISON], min_runs=2, max_runs=2)
        assert backend.attempts[f"{_POISON.label}#0x2"] == 1  # no silent retry
        assert executor.ledger.counts_by_fate() == {"fatal": 1}

    def test_quarantine_after_exactly_max_retries_attempts(self):
        backend = _PoisonBackend(_POISON.label)  # deterministic failure
        executor = self._executor(backend, max_retries=3, on_failure="quarantine")
        result = executor.run_campaign([_POISON, _HEALTHY], min_runs=2, max_runs=2)

        # Exactly max_retries attempts per task — no infinite requeue.
        assert backend.attempts == {f"{_POISON.label}#0x2": 3}
        assert len(backend.quarantined) == 1
        assert executor.stats.tasks_quarantined == 1
        assert executor.stats.runs_abandoned == 2
        assert executor.stats.scenarios_dropped == 1
        assert executor.stats.degraded
        assert executor.ledger.counts_by_fate() == {"retried": 2, "quarantined": 1}
        # The healthy scenario still resolved normally.
        assert [sr.scenario.label for sr in result.scenario_results] == [_HEALTHY.label]

    def test_skip_mode_abandons_without_quarantine(self):
        backend = _PoisonBackend(_POISON.label)
        executor = self._executor(backend, max_retries=2, on_failure="skip")
        result = executor.run_campaign([_POISON, _HEALTHY], min_runs=2, max_runs=2)
        assert backend.quarantined == []
        assert executor.stats.tasks_quarantined == 0
        assert executor.stats.degraded
        assert executor.ledger.counts_by_fate() == {"retried": 1, "skipped": 1}
        assert len(result.scenario_results) == 1

    def test_all_scenarios_lost_raises(self):
        backend = _PoisonBackend(_POISON.label)
        executor = self._executor(backend, max_retries=2, on_failure="skip")
        with pytest.raises(ExperimentError, match="every scenario lost"):
            executor.run_campaign([_POISON], min_runs=2, max_runs=2)

    def test_partial_prefix_kept_when_later_runs_fail(self):
        """Only the top-up run #2 fails terminally: the contiguous prefix
        (runs #0 and #1) survives in a degraded scenario result.  A zero
        variance delta never stops early, so the first wave is topped up."""

        class _TailPoison(_PoisonBackend):
            def submit(self, task):
                if task.scenario.label == self.poison_label and task.run_start == 2:
                    return super().submit(task)
                return SerialBackend.submit(self, task)

        backend = _TailPoison(_POISON.label)
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED, settings=RunnerSettings(variance_delta=0.0)),
            backend=backend, retry_policy=_FAST_RETRY, max_retries=1, on_failure="skip",
        )
        result = executor.run_campaign([_POISON], min_runs=2, max_runs=3)
        (sr,) = result.scenario_results
        assert sr.n_runs == 2
        assert executor.stats.degraded
        assert executor.stats.runs_abandoned == 1

    def test_watchdog_timeout_lands_in_ledger(self):
        backend = _PoisonBackend(
            _POISON.label, exc_factory=lambda: RunTimeoutError("run exceeded 1s")
        )
        executor = self._executor(backend, max_retries=1, on_failure="skip")
        executor.run_campaign([_POISON, _HEALTHY], min_runs=2, max_runs=2)
        kinds = {record.kind for record in executor.ledger.records}
        assert kinds == {"RunTimeoutError"}

    def test_non_retryable_failure_skips_remaining_budget(self):
        """A lease-budget fate spends no further attempts: once every
        requeue of the attempt's budget expired too, the board fates the
        task straight away."""

        class _LeaseLoss(_PoisonBackend):
            def submit(self, task):
                if task.scenario.label != self.poison_label:
                    return SerialBackend.submit(self, task)
                self.attempts[task.task_id] = self.attempts.get(task.task_id, 0) + 1
                lost = None
                while lost is None:  # each requeued lease expires again
                    lost = self.board.expire(task.task_id, time.monotonic(), time.time())
                future = Future()
                future.set_exception(TaskFailure(lost.message, failure=lost))
                return future

        backend = _LeaseLoss(_POISON.label)
        executor = self._executor(backend, max_retries=5, on_failure="skip")
        executor.run_campaign([_POISON, _HEALTHY], min_runs=2, max_runs=2)
        assert backend.attempts[f"{_POISON.label}#0x2"] == 1  # no futile retries
        assert executor.stats.tasks_retried == 0
        assert executor.board.tasks[f"{_POISON.label}#0x2"].expiries == 6  # 5 requeues
        assert executor.ledger.counts_by_fate() == {"skipped": 1}
        assert {r.kind for r in executor.ledger.records} == {"StaleLease"}
        assert {r.worker for r in executor.ledger.records} == {"coordinator"}

    def test_ledger_persisted_next_to_cache(self, tmp_path):
        backend = _PoisonBackend(_POISON.label)
        executor = self._executor(
            backend, max_retries=2, on_failure="quarantine",
            cache_dir=tmp_path / "cache",
        )
        executor.run_campaign([_POISON, _HEALTHY], min_runs=2, max_runs=2)
        records = load_failure_records(tmp_path / "cache" / "failures.ndjson")
        assert len(records) == len(executor.ledger.records) > 0
        assert {r.fate for r in records} == {"retried", "quarantined"}
        # A fresh campaign truncates the previous ledger file.
        backend2 = _PoisonBackend("none-poisoned")
        executor2 = self._executor(backend2, cache_dir=tmp_path / "cache")
        executor2.run_campaign([_HEALTHY], min_runs=2, max_runs=2)
        assert load_failure_records(tmp_path / "cache" / "failures.ndjson") == []

    def test_campaign_deadline_aborts_with_ledger_records(self):
        executor = self._executor(_HangBackend(), campaign_timeout=0.3)
        started = time.monotonic()
        with pytest.raises(ExperimentError, match="campaign deadline"):
            executor.run_campaign([_HEALTHY], min_runs=2, max_runs=2)
        assert time.monotonic() - started < 10.0  # aborted, not hung
        assert len(executor.ledger.records) == 1  # the in-flight task
        assert {r.kind for r in executor.ledger.records} == {"CampaignTimeout"}
        assert {r.fate for r in executor.ledger.records} == {"fatal"}

    def test_coordinator_observed_failures_name_the_coordinator(self, tmp_path, monkeypatch):
        """A failed attempt on an in-process backend, a failed cache write
        and an expired deadline are observed by the coordinator itself:
        their records name ``coordinator``, not the backend."""
        executor = self._executor(
            _PoisonBackend(_POISON.label), max_retries=2, on_failure="skip"
        )
        executor.run_campaign([_POISON, _HEALTHY], min_runs=2, max_runs=2)
        assert {r.worker for r in executor.ledger.records} == {"coordinator"}

        def _failing_put(self, key, run, key_payload=None):
            raise OSError("disk full")

        monkeypatch.setattr(RunCache, "put", _failing_put)
        executor = self._executor(SerialBackend(), cache_dir=tmp_path / "cache")
        executor.run_campaign([_HEALTHY], min_runs=2, max_runs=2)
        assert {(r.fate, r.worker) for r in executor.ledger.records} == {
            ("tolerated", "coordinator")
        }
        assert executor.stats.failures == 2

        executor = self._executor(_HangBackend(), campaign_timeout=0.05)
        with pytest.raises(ExperimentError, match="campaign deadline"):
            executor.run_campaign([_HEALTHY], min_runs=2, max_runs=2)
        assert {r.worker for r in executor.ledger.records} == {"coordinator"}

    def test_invalid_knobs_rejected(self):
        runner = ScenarioRunner(seed=SEED)
        with pytest.raises(ExperimentError):
            CampaignExecutor(runner, max_retries=0)
        with pytest.raises(ExperimentError):
            CampaignExecutor(runner, on_failure="explode")
        with pytest.raises(ExperimentError):
            CampaignExecutor(runner, run_timeout=0.0)
        with pytest.raises(ExperimentError):
            CampaignExecutor(runner, campaign_timeout=-1.0)

    def test_exit_degraded_constant(self):
        from repro.cli import _EXIT_DEGRADED

        assert EXIT_DEGRADED == _EXIT_DEGRADED == 3

    def test_cli_says_when_quarantine_falls_back_to_skip(self, monkeypatch, capsys):
        """Without a spool there is no quarantine store: the CLI says that
        the exhausted task was skipped instead."""
        from repro.cli import main
        from repro.experiments import design

        poisoned = MigrationScenario("MEMLOAD-VM", "faults/cli/lv/dr95", live=True,
                                     dirty_percent=95.0)
        monkeypatch.setattr(design, "memload_vm_scenarios", lambda family: [_HEALTHY, poisoned])
        code = main([
            "--seed", "3", "campaign", "--experiment", "memload-vm", "--runs", "2",
            "--max-retries", "2", "--on-failure", "quarantine",
            "--chaos", "seed=7;execute:crash:tag=dr95",
        ])
        assert code == EXIT_DEGRADED
        out = capsys.readouterr().out
        assert "note: --on-failure quarantine needs --spool-dir; 1 tasks skipped instead" in out
        assert "campaign DEGRADED: 0 tasks quarantined" in out


class TestQueueQuarantine:
    def _task(self, run_start: int = 0):
        from repro.experiments.executor import RunTask
        from repro.experiments.runner import RunnerSettings
        from repro.telemetry.stabilization import StabilizationRule

        settings = RunnerSettings()
        rule = StabilizationRule()
        key = RunCache.scenario_key(SEED, _HEALTHY, settings, None, rule)
        return RunTask(
            seed=SEED, settings=settings, migration_config=None,
            stabilization=rule, scenario=_HEALTHY, run_start=run_start, key=key,
        )

    def test_quarantine_moves_spec_and_status_reports_it(self, tmp_path):
        backend = QueueBackend(
            tmp_path / "spool", RunCache(tmp_path / "cache"), poll_interval=0.02
        )
        task = self._task()
        future = backend.submit(task)
        assert backend.quarantine(task) is True
        spec_path = backend.spool.quarantine / f"{future.task_id}.json"
        assert spec_path.is_file()
        assert not (backend.spool.tasks / f"{future.task_id}.json").exists()
        assert backend.stats.tasks_quarantined == 1

        status = spool_status(tmp_path / "spool")
        assert status["tasks_quarantined"] == 1
        assert status["quarantined"] == [future.task_id]
        assert status["tasks_open"] == 0

    def test_spool_gc_sweeps_aged_quarantine(self, tmp_path):
        import os

        backend = QueueBackend(
            tmp_path / "spool", RunCache(tmp_path / "cache"), poll_interval=0.02
        )
        task = self._task()
        future = backend.submit(task)
        backend.quarantine(task)
        spec_path = backend.spool.quarantine / f"{future.task_id}.json"
        long_ago = time.time() - 7200
        os.utime(spec_path, (long_ago, long_ago))

        dry = spool_gc(tmp_path / "spool", max_age_s=3600.0, dry_run=True)
        assert dry["quarantine"] == 1
        assert spec_path.exists()  # dry run touches nothing

        report = spool_gc(tmp_path / "spool", max_age_s=3600.0)
        assert report["quarantine"] == 1
        assert f"quarantine/{future.task_id}.json" in report["files"]
        assert not spec_path.exists()

        # Young quarantined specs survive the sweep.
        future2 = backend.submit(self._task(1))
        backend.quarantine(self._task(1))
        report = spool_gc(tmp_path / "spool", max_age_s=3600.0)
        assert report["quarantine"] == 0

    def _leased(self, backend, **board_options):
        """Submit one task the way the executor does: on a board, leased."""
        board = backend.board = TaskBoard(**board_options)
        task = self._task()
        board.add(task.task_id, task.scenario.label, task.run_indices, task)
        assert board.lease_ready(time.monotonic()) == [task]
        return board, task, backend.submit(task)

    def test_stale_lease_budget_fails_future_non_retryable(self, tmp_path):
        """An expiry past the lease budget fails the attempt without
        another requeue, and the board fates it with no further attempt."""
        import os

        backend = QueueBackend(
            tmp_path / "spool", RunCache(tmp_path / "cache"),
            poll_interval=0.02, stale_timeout=0.5,
        )
        board, task, future = self._leased(
            backend, max_retries=2, on_failure="quarantine",
            quarantine=backend.quarantine,
        )
        long_ago = time.time() - 60
        for _ in range(3):  # two requeues within the budget, then the loss
            claim = _claim_next_task(backend.spool)
            assert claim is not None
            os.utime(claim, (long_ago, long_ago))
            backend._requeue_stale_claims()
        assert backend.stats.tasks_requeued == 2
        assert not claim.exists()
        assert not backend.spool.task_path(task.task_id).exists()
        assert not backend.spool.failure_path(task.task_id).exists()  # nothing spooled

        assert backend.wait([future], timeout=30.0) == {future}
        exc = future.exception()
        assert isinstance(exc, TaskFailure)
        assert exc.failure.kind == "StaleLease"
        failure = board.fail(task.task_id, exc, time.monotonic(), time.time())
        assert (failure.fate, failure.attempt) == ("quarantined", 1)
        assert backend.spool.quarantine_path(task.task_id).is_file()
        assert backend.stats.tasks_requeued == 2

    def test_stale_lease_budget_allows_bounded_requeues(self, tmp_path):
        import os

        backend = QueueBackend(
            tmp_path / "spool", RunCache(tmp_path / "cache"),
            poll_interval=0.02, stale_timeout=0.5,
        )
        board, task, future = self._leased(backend, max_retries=2)
        long_ago = time.time() - 60
        # The first two expiries are requeued (budget 2), each seen by wait().
        for requeues in (1, 2):
            claim = _claim_next_task(backend.spool)
            os.utime(claim, (long_ago, long_ago))
            deadline = time.monotonic() + 30.0
            while not (backend.spool.tasks / claim.name).exists():
                assert backend.wait([future], timeout=0.05) == set()
                assert time.monotonic() < deadline
            assert backend.stats.tasks_requeued == requeues
            assert board.tasks[task.task_id].state == "leased"
        # Third expiry: budget exhausted, future fails.
        claim = _claim_next_task(backend.spool)
        os.utime(claim, (long_ago, long_ago))
        done = backend.wait([future], timeout=30.0)
        assert done == {future}
        assert isinstance(future.exception(), TaskFailure)
        assert backend.stats.tasks_requeued == 2
        assert board.fail(
            task.task_id, future.exception(), time.monotonic(), time.time()
        ).fate == "fatal"
