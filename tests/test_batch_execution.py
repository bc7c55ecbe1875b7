"""Seed-batched run execution: RunTask over a run range, the
wavm3-taskspec/3 wire format, worker-side execute_batch, and golden
byte-identity between batched and per-run dispatch on every backend.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import (
    CampaignExecutor,
    RunCache,
    RunTask,
    _contiguous_spans,
    execute_batch,
)
from repro.experiments.queue_backend import QueueBackend, run_worker
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.io import (
    PersistenceError,
    save_samples_json,
    task_spec_from_dict,
    task_spec_to_dict,
)
from repro.telemetry.stabilization import StabilizationRule

SEED = 20150901
_SCENARIO = MigrationScenario("CPULOAD-SOURCE", "batch/nl/0vm", live=False, load_vm_count=0)


def _batch_task(run_start=0, run_count=3, scenario=_SCENARIO, with_key=True):
    settings = RunnerSettings()
    rule = StabilizationRule()
    key = (
        RunCache.scenario_key(SEED, scenario, settings, None, rule)
        if with_key
        else None
    )
    return RunTask(
        seed=SEED, settings=settings, migration_config=None,
        stabilization=rule, scenario=scenario,
        run_start=run_start, run_count=run_count, key=key,
    )


def _assert_runs_identical(a, b):
    assert a.run_index == b.run_index
    assert a.scenario == b.scenario
    assert a.timeline.ms == b.timeline.ms
    assert a.timeline.me == b.timeline.me
    assert a.timeline.bytes_total == b.timeline.bytes_total
    assert np.array_equal(a.source_trace.times, b.source_trace.times)
    assert np.array_equal(a.source_trace.watts, b.source_trace.watts)
    assert np.array_equal(a.target_trace.watts, b.target_trace.watts)


class TestRunBatchTask:
    def test_run_indices_cover_the_range(self):
        task = _batch_task(run_start=2, run_count=3)
        assert list(task.run_indices) == [2, 3, 4]

    @pytest.mark.parametrize("start,count", [(-1, 2), (0, 0), (3, -1)])
    def test_invalid_range_rejected(self, start, count):
        with pytest.raises(ExperimentError, match="invalid batch range"):
            _batch_task(run_start=start, run_count=count)

    def test_execute_is_bit_identical_to_run_once(self):
        runner = ScenarioRunner(seed=SEED)
        singles = [runner.run_once(_SCENARIO, run_index=i) for i in range(3)]
        batched = _batch_task(run_start=0, run_count=3).execute()
        assert [r.run_index for r in batched] == [0, 1, 2]
        for single, from_batch in zip(singles, batched):
            _assert_runs_identical(single, from_batch)

    def test_on_run_callback_sees_every_run_in_order(self):
        seen = []
        runs = _batch_task(run_count=2).execute(on_run=lambda r: seen.append(r.run_index))
        assert seen == [0, 1]
        assert [r.run_index for r in runs] == [0, 1]

    def test_key_payload_matches_single_run_task(self):
        """The run range is not a cache-key ingredient: every task of a
        scenario files its runs under the one scenario key."""
        batch = _batch_task(run_start=0, run_count=3)
        single = _batch_task(run_start=4, run_count=1)
        assert batch.key_payload() == single.key_payload()
        assert RunCache._payload_digest(single.key_payload()) == single.key
        batch.verify_key()
        single.verify_key()

    def test_run_batch_rejects_empty_and_negative_indices(self):
        runner = ScenarioRunner(seed=SEED)
        with pytest.raises(ExperimentError, match="at least one run index"):
            runner.run_batch(_SCENARIO, [])
        with pytest.raises(ExperimentError, match="non-negative integers"):
            runner.run_batch(_SCENARIO, [0, -2])

    def test_execute_batch_validates_scenario_upfront(self, monkeypatch):
        import repro.experiments.instances as instances

        monkeypatch.setattr(instances, "INSTANCE_CATALOG", {})
        with pytest.raises(ExperimentError, match="unknown instance"):
            execute_batch(
                SEED, RunnerSettings(), None, StabilizationRule(), _SCENARIO, [0, 1]
            )


class TestContiguousSpans:
    def test_gaps_force_span_breaks(self):
        assert _contiguous_spans([0, 1, 2, 5, 6, 9]) == [[0, 1, 2], [5, 6], [9]]

    def test_empty_and_single(self):
        assert _contiguous_spans([]) == []
        assert _contiguous_spans([4]) == [[4]]


class TestTaskSpecWireFormat:
    @pytest.mark.parametrize(
        "run_start,run_count", [(2, 1), (1, 4)], ids=["one-run", "four-runs"]
    )
    def test_spec_round_trips_as_taskspec_3(self, run_start, run_count):
        task = _batch_task(run_start=run_start, run_count=run_count)
        spec = task_spec_to_dict(task)
        assert spec["schema"] == "wavm3-taskspec/3"
        assert spec["run_start"] == run_start and spec["run_count"] == run_count
        assert "run_index" not in spec
        rebuilt = task_spec_from_dict(spec)
        assert isinstance(rebuilt, RunTask)
        assert rebuilt == task

    def test_unknown_schema_rejected(self):
        spec = task_spec_to_dict(_batch_task())
        spec["schema"] = "wavm3-taskspec/99"
        with pytest.raises(PersistenceError, match="unexpected task-spec schema"):
            task_spec_from_dict(spec)

    def test_retired_single_run_spec_rejected(self):
        """A spec in the retired single-run schema (one ``run_index``)
        is refused, naming the schema a worker wants."""
        spec = task_spec_to_dict(_batch_task(run_start=2, run_count=1))
        del spec["run_start"], spec["run_count"]
        spec.update(schema="wavm3-taskspec/1", run_index=2)
        with pytest.raises(PersistenceError, match="want 'wavm3-taskspec/3'"):
            task_spec_from_dict(spec)

    def test_retired_driver_spec_rejected(self):
        """A /2 spec, whose scenario still carries the retired ``driver``
        field, is refused, naming the schema a worker wants."""
        spec = task_spec_to_dict(_batch_task())
        spec["schema"] = "wavm3-taskspec/2"
        spec["scenario"]["driver"] = "scripted"
        with pytest.raises(PersistenceError, match="want 'wavm3-taskspec/3'"):
            task_spec_from_dict(spec)

    def test_invalid_range_in_spec_rejected(self):
        spec = task_spec_to_dict(_batch_task())
        spec["run_count"] = 0
        with pytest.raises(PersistenceError, match="invalid batch range"):
            task_spec_from_dict(spec)

    def test_batch_task_id_encodes_range(self):
        task = _batch_task(run_start=3, run_count=5)
        assert task.task_id == f"{task.key[:16]}-0003x5"
        # A one-run task is named like its run: no count suffix.
        single = _batch_task(run_start=3, run_count=1)
        assert single.task_id == single.run_id(3) == f"{task.key[:16]}-0003"
        assert [task.run_id(i) for i in task.run_indices] == [
            f"{task.key[:16]}-{i:04d}" for i in range(3, 8)
        ]

    def test_keyless_ids_fall_back_to_the_label(self):
        task = _batch_task(run_start=1, run_count=2, with_key=False)
        assert task.run_id(1) == "batch/nl/0vm#1"
        assert task.task_id == "batch/nl/0vm#1x2"


class TestGoldenByteIdentity:
    """Acceptance: byte-identical campaign samples JSON between
    --batch-size 1 (per-run) and batched dispatch on every backend."""

    RUNS = 3

    def _samples_bytes(self, result, path):
        save_samples_json(result.samples(), path)
        return path.read_bytes()

    def _local(self, tmp_path, jobs, batch_size, tag):
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), jobs=jobs,
            cache_dir=tmp_path / f"cache-{tag}", batch_size=batch_size,
        )
        result = executor.run_campaign([_SCENARIO], min_runs=self.RUNS, max_runs=self.RUNS)
        return executor, result

    def test_serial_backend(self, tmp_path):
        ex1, r1 = self._local(tmp_path, 1, 1, "s1")
        exN, rN = self._local(tmp_path, 1, None, "sN")
        assert ex1.backend == exN.backend == "serial"
        assert self._samples_bytes(r1, tmp_path / "s1.json") == self._samples_bytes(
            rN, tmp_path / "sN.json"
        )
        assert exN.stats.runs_executed == self.RUNS

    def test_process_backend(self, tmp_path):
        ex1, r1 = self._local(tmp_path, 2, 1, "p1")
        exN, rN = self._local(tmp_path, 2, 2, "pN")
        assert ex1.backend == exN.backend == "process"
        assert self._samples_bytes(r1, tmp_path / "p1.json") == self._samples_bytes(
            rN, tmp_path / "pN.json"
        )

    def test_queue_backend(self, tmp_path):
        def campaign(batch_size, tag):
            spool = tmp_path / f"spool-{tag}"
            cache = tmp_path / f"qcache-{tag}"
            executor = CampaignExecutor(
                ScenarioRunner(seed=SEED), backend="queue", cache_dir=cache,
                spool_dir=spool, batch_size=batch_size,
                queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
            )
            worker = threading.Thread(
                target=run_worker, args=(spool, cache),
                kwargs={"poll_interval": 0.02, "worker_id": f"w-{tag}"},
                daemon=True,
            )
            worker.start()
            result = executor.run_campaign(
                [_SCENARIO], min_runs=self.RUNS, max_runs=self.RUNS
            )
            worker.join(timeout=30)
            return executor, result

        ex1, r1 = campaign(1, "q1")
        exN, rN = campaign(self.RUNS, "qN")
        assert self._samples_bytes(r1, tmp_path / "q1.json") == self._samples_bytes(
            rN, tmp_path / "qN.json"
        )
        # The whole wave went out as one spool spec.
        assert ex1.queue_stats.tasks_submitted == self.RUNS
        assert exN.queue_stats.tasks_submitted == 1
        # Progress stays per-run regardless of batching.
        assert len(exN.progress_events) == self.RUNS
        assert sorted(e.run_index for e in exN.progress_events) == list(range(self.RUNS))

    def test_batched_warm_rerun_performs_zero_runs(self, tmp_path):
        self._local(tmp_path, 1, None, "warm")
        executor, _ = self._local(tmp_path, 1, None, "warm")
        assert executor.stats.runs_executed == 0
        assert executor.stats.runs_cached == self.RUNS


class TestChunkedDispatch:
    def test_cache_hole_splits_contiguous_spans(self, tmp_path):
        """A cache hit mid-wave must break the batch into spans around it."""
        cache_dir = tmp_path / "cache"
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), cache_dir=cache_dir, batch_size=None
        )
        key = RunCache.scenario_key(
            SEED, _SCENARIO, executor.runner.settings, None, executor.runner.stabilization
        )
        warm = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=1)
        executor.cache.put(key, warm, key_payload=RunCache._key_payload(
            SEED, _SCENARIO, executor.runner.settings, None, executor.runner.stabilization,
        ))

        submitted = []
        original = executor._backend.submit
        executor._backend.submit = lambda task: (submitted.append(task), original(task))[1]
        result = executor.run_campaign([_SCENARIO], min_runs=4, max_runs=4)

        assert executor.stats.runs_cached == 1
        assert executor.stats.runs_executed == 3
        # Index 1 came from cache: span [0] dispatches as a one-run task,
        # span [2, 3] as one two-run task.
        assert sorted((task.run_start, task.run_count) for task in submitted) == [
            (0, 1), (2, 2),
        ]
        serial = ScenarioRunner(seed=SEED).run_campaign([_SCENARIO], min_runs=4, max_runs=4)
        for a, b in zip(serial.scenario_results[0].runs, result.scenario_results[0].runs):
            _assert_runs_identical(a, b)

    def test_explicit_batch_size_chunks_waves(self, tmp_path):
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), cache_dir=tmp_path / "cache", batch_size=2
        )
        submitted = []
        original = executor._backend.submit
        executor._backend.submit = lambda task: (submitted.append(task), original(task))[1]
        executor.run_campaign([_SCENARIO], min_runs=5, max_runs=5)
        shapes = sorted((task.run_start, task.run_count) for task in submitted)
        assert shapes == [(0, 2), (2, 2), (4, 1)]

    def test_batch_size_validation(self):
        with pytest.raises(ExperimentError, match="batch_size"):
            CampaignExecutor(ScenarioRunner(seed=SEED), batch_size=0)


class TestQueueWorkerBatch:
    def test_partial_cache_short_circuits_per_run(self, tmp_path):
        """A batch claim re-simulates only the runs missing from the cache."""
        spool = tmp_path / "spool"
        cache_dir = tmp_path / "cache"
        cache = RunCache(cache_dir)
        task = _batch_task(run_start=0, run_count=3)
        warm = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=1)
        cache.put(task.key, warm, key_payload=task.key_payload())

        backend = QueueBackend(spool, cache, poll_interval=0.02)
        future = backend.submit(task)
        stats = run_worker(
            spool, cache_dir, poll_interval=0.02, max_tasks=1, worker_id="w-partial"
        )
        assert stats.claimed == 1
        assert stats.cached == 1
        assert stats.executed == 2
        assert stats.failed == 0
        done = backend.wait([future])
        assert future in done
        runs = future.result()
        assert [r.run_index for r in runs] == [0, 1, 2]
        singles = [ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=i) for i in range(3)]
        for a, b in zip(singles, runs):
            _assert_runs_identical(a, b)

    def test_late_joining_worker_drains_spooled_batch(self, tmp_path):
        """Satellite: capacity is None until a worker heartbeats, so the
        first wave is spooled cold (sized from jobs); a worker that joins
        afterwards must drain it and complete the campaign."""
        spool = tmp_path / "spool"
        cache_dir = tmp_path / "cache"
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), backend="queue", cache_dir=cache_dir,
            spool_dir=spool, batch_size=None,
            queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
        )
        assert executor._backend.capacity is None  # nobody has heartbeat yet

        def late_worker():
            time.sleep(0.3)
            run_worker(spool, cache_dir, poll_interval=0.02, worker_id="w-late")

        worker = threading.Thread(target=late_worker, daemon=True)
        worker.start()
        result = executor.run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        worker.join(timeout=30)
        assert executor.stats.runs_executed == 2
        # Cold start fell back to jobs=1: the whole wave left as one batch.
        assert executor.queue_stats.tasks_submitted == 1
        serial = ScenarioRunner(seed=SEED).run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        for a, b in zip(serial.scenario_results[0].runs, result.scenario_results[0].runs):
            _assert_runs_identical(a, b)


class TestCliBatchSize:
    @pytest.mark.parametrize("value", ["0", "-2", "maybe"])
    def test_invalid_batch_size_rejected(self, value):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["campaign", "--batch-size", value])
        assert info.value.code == 2

    def test_auto_and_integer_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign", "--batch-size", "auto"])
        assert args.batch_size is None
        args = build_parser().parse_args(["campaign", "--batch-size", "4"])
        assert args.batch_size == 4
