"""Adaptive campaign scheduling: throughput model, speculation policy,
wave planning, and the straggler re-dispatch path end to end.

Covers the EWMA :class:`ThroughputModel` (cold-start parity with the
legacy even split, proportional warm plans, drain dedup), the
:class:`SpeculationPolicy` gates, the executor's wave planner (explicit
batch sizes and cache holes keep the legacy dispatch shape bit for bit;
warm plans carve across holes without bridging them) and a full
campaign against a backend with a permanently stalled lane — the
speculative clone must win, duplicates must dedup idempotently, and the
results must stay byte-identical to the serial path.
"""

import math
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
    _execute_task,
    _SerialFuture,
)
from repro.experiments.results import ProgressEvent
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.experiments.scheduler import SpeculationPolicy, ThroughputModel
from repro.models.features import HostRole

SEED = 20150901

FAST = dict(
    min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
    check_interval_s=1.0,
)

_SCENARIO = MigrationScenario(
    "CPULOAD-SOURCE", "sched/nl/0vm", live=False, load_vm_count=0
)


def _event(task_id="t-0", worker="w0", wall_s=1.0, at=1.0, **overrides):
    base = dict(
        task_id=task_id, scenario="s", run_index=0, worker=worker,
        runs_completed=1, samples=100, wall_s=wall_s,
        samples_per_s=(100.0 / wall_s) if wall_s else 0.0, at=at,
    )
    base.update(overrides)
    return ProgressEvent(**base)


def _runner(seed: int = SEED) -> ScenarioRunner:
    return ScenarioRunner(seed=seed, settings=RunnerSettings(**FAST))


class TestThroughputModel:
    def test_parameter_validation(self):
        with pytest.raises(ExperimentError, match="alpha"):
            ThroughputModel(alpha=0.0)
        with pytest.raises(ExperimentError, match="alpha"):
            ThroughputModel(alpha=1.5)
        with pytest.raises(ExperimentError, match="window"):
            ThroughputModel(window=0)

    def test_cold_plan_matches_legacy_even_split(self):
        model = ThroughputModel()
        assert model.plan_spans(6, 2) == [3, 3]
        assert model.plan_spans(5, 2) == [3, 2]
        assert model.plan_spans(3, 4) == [1, 1, 1]
        assert model.plan_spans(0, 2) == []
        assert model.plan_spans(-1, 2) == []

    def test_lanes_validated(self):
        with pytest.raises(ExperimentError, match="lanes"):
            ThroughputModel().plan_spans(4, 0)

    def test_duplicate_announcements_folded_once(self):
        model = ThroughputModel()
        event = _event(at=7.0)
        assert model.observe(event) is True
        assert model.observe(event) is False
        assert model.observe_all([event, _event(at=8.0)]) == 1
        assert model.observations == 2

    def test_degenerate_walls_skipped(self):
        model = ThroughputModel()
        assert model.observe(_event(wall_s=0.0, at=1.0)) is False
        assert model.observe(_event(wall_s=-1.0, at=2.0)) is False
        assert model.observe(_event(wall_s=math.inf, at=3.0)) is False
        assert model.observe(_event(wall_s=math.nan, at=4.0)) is False
        assert model.observations == 0
        assert model.run_rate("w0") is None
        assert model.median_run_wall() is None

    def test_ewma_blends_old_and_new(self):
        model = ThroughputModel(alpha=0.5)
        model.observe(_event(wall_s=1.0, at=1.0))  # rate 1.0
        model.observe(_event(wall_s=0.5, at=2.0))  # rate 2.0
        assert model.run_rate("w0") == pytest.approx(0.5 * 2.0 + 0.5 * 1.0)
        assert model.sample_rate("w0") == pytest.approx(0.5 * 200.0 + 0.5 * 100.0)

    def test_workers_sorted_fastest_first(self):
        model = ThroughputModel()
        model.observe(_event(worker="slow", wall_s=2.0, at=1.0))
        model.observe(_event(worker="fast", wall_s=0.2, at=2.0))
        model.observe(_event(worker="mid", wall_s=1.0, at=3.0))
        assert model.workers() == ["fast", "mid", "slow"]

    def test_median_run_wall(self):
        model = ThroughputModel()
        for i, wall in enumerate([3.0, 1.0, 2.0]):
            model.observe(_event(wall_s=wall, at=float(i)))
        assert model.median_run_wall() == 2.0
        model.observe(_event(wall_s=4.0, at=9.0))
        assert model.median_run_wall() == 2.5

    def test_median_window_keeps_recent_walls_only(self):
        model = ThroughputModel(window=2)
        for i, wall in enumerate([10.0, 1.0, 3.0]):
            model.observe(_event(wall_s=wall, at=float(i)))
        assert model.median_run_wall() == 2.0  # [1.0, 3.0]; the 10.0 aged out

    def test_warm_plan_proportional_to_rates(self):
        model = ThroughputModel()
        model.observe(_event(worker="fast", wall_s=1.0 / 9.0, at=1.0))
        model.observe(_event(worker="slow", wall_s=1.0, at=2.0))
        assert model.plan_spans(10, 2) == [9, 1]

    def test_unseen_lanes_assume_mean_observed_rate(self):
        model = ThroughputModel()
        model.observe(_event(worker="only", wall_s=0.5, at=1.0))
        assert model.plan_spans(9, 3) == [3, 3, 3]

    def test_small_wave_keeps_even_split_even_when_warm(self):
        model = ThroughputModel()
        model.observe(_event(worker="fast", wall_s=0.1, at=1.0))
        model.observe(_event(worker="slow", wall_s=1.0, at=2.0))
        assert model.plan_spans(2, 2) == [1, 1]

    def test_warm_plan_conserves_runs(self):
        model = ThroughputModel()
        for i, wall in enumerate([0.3, 0.7, 0.11]):
            model.observe(_event(worker=f"w{i}", wall_s=wall, at=float(i)))
        for missing in (7, 13, 100):
            sizes = model.plan_spans(missing, 3)
            assert sum(sizes) == missing
            assert all(size >= 1 for size in sizes)


class TestSpeculationPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(wave_fraction=-0.1),
            dict(wave_fraction=1.1),
            dict(slowdown=0.0),
            dict(slowdown=-1.0),
            dict(min_elapsed_s=-0.1),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ExperimentError):
            SpeculationPolicy(**kwargs)

    def test_gates(self):
        policy = SpeculationPolicy(wave_fraction=0.5, slowdown=2.0, min_elapsed_s=0.05)
        # No observed walls yet: never speculate.
        assert not policy.is_straggler(10.0, 1, None, 1.0)
        # Wave not far enough along.
        assert not policy.is_straggler(10.0, 1, 1.0, 0.4)
        # Outstanding, but within the expected envelope (2x of 1 run x 1s).
        assert not policy.is_straggler(1.9, 1, 1.0, 0.9)
        assert policy.is_straggler(2.0, 1, 1.0, 0.9)
        # Batch chunks scale the envelope by their run count.
        assert not policy.is_straggler(5.0, 3, 1.0, 0.9)
        assert policy.is_straggler(6.0, 3, 1.0, 0.9)

    def test_min_elapsed_floor_suppresses_trivial_waves(self):
        policy = SpeculationPolicy(min_elapsed_s=0.05)
        # 2x the (tiny) expected wall has passed, but not the floor.
        assert not policy.is_straggler(0.01, 1, 0.001, 1.0)
        assert policy.is_straggler(0.05, 1, 0.001, 1.0)

    def test_disabled_policy_never_fires(self):
        policy = SpeculationPolicy(enabled=False)
        assert not policy.is_straggler(100.0, 1, 1.0, 1.0)


class TestWavePlanning:
    """``CampaignExecutor._plan_wave_chunks``: dispatch shape only — the
    process pool is lazy, so no worker ever spawns here."""

    def test_cold_auto_mode_is_legacy_even_split(self):
        executor = CampaignExecutor(_runner(), jobs=2, batch_size=None)
        assert executor._plan_wave_chunks([0, 1, 2, 3, 4, 5]) == [
            (0, 1, 2),
            (3, 4, 5),
        ]
        assert executor._plan_wave_chunks([]) == []

    def test_default_batch_size_keeps_per_run_dispatch(self):
        executor = CampaignExecutor(_runner(), jobs=2)
        assert executor._plan_wave_chunks([0, 1, 2]) == [(0,), (1,), (2,)]

    def test_cold_auto_mode_cache_hole_keeps_legacy_shape(self):
        # chunk size comes from the TOTAL missing count, then is chopped
        # per contiguous span: [0] and [2, 3] with 2 lanes must dispatch
        # as a single run plus one 2-run batch.
        executor = CampaignExecutor(_runner(), jobs=2, batch_size=None)
        assert executor._plan_wave_chunks([0, 2, 3]) == [(0,), (2, 3)]

    def test_explicit_batch_size_chops_each_span(self):
        executor = CampaignExecutor(_runner(), jobs=2, batch_size=2)
        assert executor._plan_wave_chunks([0, 2, 3, 4, 5, 6]) == [
            (0,),
            (2, 3),
            (4, 5),
            (6,),
        ]

    def test_warm_model_plans_proportional_chunks(self):
        model = ThroughputModel()
        model.observe(_event(worker="fast", wall_s=0.5, at=1.0))  # 2 runs/s
        model.observe(_event(worker="slow", wall_s=1.0, at=2.0))  # 1 run/s
        executor = CampaignExecutor(
            _runner(), jobs=2, batch_size=None, throughput=model
        )
        assert executor._plan_wave_chunks([0, 1, 2, 3, 4, 5]) == [
            (0, 1, 2, 3),
            (4, 5),
        ]

    def test_warm_plan_is_cut_at_cache_holes(self):
        # The proportional plan [4, 2] carves across spans (0,1,2) and
        # (4,5,6) with carry: chunks never bridge a hole.
        model = ThroughputModel()
        model.observe(_event(worker="fast", wall_s=0.5, at=1.0))
        model.observe(_event(worker="slow", wall_s=1.0, at=2.0))
        executor = CampaignExecutor(
            _runner(), jobs=2, batch_size=None, throughput=model
        )
        assert executor._plan_wave_chunks([0, 1, 2, 4, 5, 6]) == [
            (0, 1, 2),
            (4,),
            (5, 6),
        ]

    def test_explicit_batch_size_ignores_warm_model(self):
        model = ThroughputModel()
        model.observe(_event(worker="fast", wall_s=0.5, at=1.0))
        model.observe(_event(worker="slow", wall_s=1.0, at=2.0))
        executor = CampaignExecutor(_runner(), jobs=2, batch_size=3, throughput=model)
        assert executor._plan_wave_chunks([0, 1, 2, 3, 4, 5]) == [
            (0, 1, 2),
            (3, 4, 5),
        ]


class _OneStallBackend(ExecutorBackend):
    """Two-lane inline backend whose *first* dispatch covering a chosen
    run index returns a future that never resolves — a permanently hung
    lane.  Any later dispatch of that index (the speculative clone)
    executes inline, so only speculation can finish the campaign."""

    name = "one-stall"

    def __init__(self, stall_index: int) -> None:
        self._stall_index = stall_index
        self.stalled_future = None

    @property
    def capacity(self):
        return 2

    def submit(self, task):
        if self.stalled_future is None and self._stall_index in task.run_indices:
            self.stalled_future = Future()  # never resolves
            return self.stalled_future
        future = _SerialFuture(_execute_task, task, None)
        future.worker = "spare-lane"
        return future

    def wait(self, pending, timeout=None):
        done = {future for future in pending if future.done()}
        if not done and timeout:
            time.sleep(min(timeout, 0.05))
        return done


class TestSpeculativeRedispatch:
    def test_clone_rescues_stalled_chunk_and_dedups(self):
        """A hung lane holds the last run of the wave forever.  The
        speculation policy clones the chunk to the idle lane, the clone's
        result wins, the hung future is discarded idempotently, and the
        campaign bytes match the serial path exactly."""
        backend = _OneStallBackend(stall_index=3)
        executor = CampaignExecutor(
            _runner(),
            jobs=2,
            backend=backend,
            batch_size=1,
            speculation=SpeculationPolicy(
                wave_fraction=0.5, slowdown=0.1, min_elapsed_s=0.0
            ),
        )
        result = executor.run_campaign([_SCENARIO], min_runs=4, max_runs=4)

        assert executor.stats.tasks_speculated == 1
        assert executor.stats.runs_deduped == 1
        assert backend.stalled_future is not None
        assert not backend.stalled_future.done()

        serial = _runner().run_campaign([_SCENARIO], min_runs=4, max_runs=4)
        assert len(result.scenario_results) == 1
        speculated, expected = result.scenario_results[0], serial.scenario_results[0]
        assert speculated.n_runs == expected.n_runs == 4
        assert np.array_equal(
            speculated.total_energies_j(HostRole.SOURCE),
            expected.total_energies_j(HostRole.SOURCE),
        )
        for run, ref in zip(speculated.runs, expected.runs):
            assert run.run_index == ref.run_index
            assert np.array_equal(run.source_trace.watts, ref.source_trace.watts)

        # Progress accounting stays single: one event per run index even
        # though two futures covered index 3.
        indices = [event.run_index for event in executor.progress_events]
        assert sorted(indices) == [0, 1, 2, 3]

    def test_speculation_off_by_default(self):
        executor = CampaignExecutor(_runner(), jobs=2)
        assert executor.speculation is None
        result = executor.run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        assert executor.stats.tasks_speculated == 0
        assert executor.stats.runs_deduped == 0
        assert result.scenario_results[0].n_runs == 2


class TestRunCacheCounters:
    def test_counters_track_hits_misses_and_bytes(self, tmp_path):
        executor = CampaignExecutor(_runner(), jobs=1, cache_dir=tmp_path / "cache")
        cache = executor.cache
        assert cache.counters() == {
            "hits": 0, "misses": 0, "bytes_read": 0, "bytes_written": 0,
        }
        executor.run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        counters = cache.counters()
        assert counters["misses"] == 2  # the cold pre-dispatch lookups
        assert counters["hits"] == 0
        assert counters["bytes_written"] > 0

        # A warm rerun serves every run from disk: hits and bytes move.
        executor.run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        counters = cache.counters()
        assert counters["hits"] == 2
        assert counters["bytes_read"] > 0
