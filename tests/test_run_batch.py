"""``run_batch``: one per-run interior, bit for bit ``run_once``.

A multi-run task (``RunTask``) executes its span through
:meth:`ScenarioRunner.run_batch`, which runs every index through
:meth:`ScenarioRunner.run_once`.  These goldens pin that a batch changes
**no byte** of any artifact: every recorded array matches the per-index
``run_once`` reference on every scenario archetype, in both telemetry
modes, on the serial and distributed-queue backends, for non-contiguous
index lists (cache holes) and singleton batches.  The cache keys are
pinned to their published hex digests, so a settings field that comes or
goes cannot silently orphan a warmed cache.
"""

import threading

import numpy as np
import pytest

from repro.experiments.design import MigrationScenario, all_scenarios
from repro.experiments.executor import CampaignExecutor, RunCache
from repro.experiments.queue_backend import run_worker
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.io import save_samples_json
from repro.telemetry.stabilization import StabilizationRule

#: Fast protocol settings (shape preserved: warmup, stabilisation checks,
#: migration wait, post-measurement all exercised).
FAST = dict(
    min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
    check_interval_s=1.0,
)

#: One scenario per archetype of the Table IIa design.
ARCHETYPES = [
    MigrationScenario("CPULOAD-SOURCE", "batch/lv/1vm", live=True, load_vm_count=1),
    MigrationScenario("CPULOAD-SOURCE", "batch/nl/0vm", live=False, load_vm_count=0),
    MigrationScenario(
        "CPULOAD-TARGET", "batch/lv/tgt3", live=True, load_vm_count=3, load_on="target"
    ),
    MigrationScenario("MEMLOAD-VM", "batch/lv/dr55", live=True, dirty_percent=55.0),
    MigrationScenario(
        "MEMLOAD-SOURCE", "batch/lv/mem", live=True, load_vm_count=1,
        dirty_percent=95.0,
    ),
]


def _runner(seed: int = 3, telemetry: str = "batched") -> ScenarioRunner:
    return ScenarioRunner(
        seed=seed, settings=RunnerSettings(telemetry=telemetry, **FAST)
    )


def _assert_runs_identical(a, b):
    assert a.run_index == b.run_index
    assert a.timeline.ms == b.timeline.ms
    assert a.timeline.me == b.timeline.me
    assert a.timeline.bytes_total == b.timeline.bytes_total
    assert np.array_equal(a.source_trace.times, b.source_trace.times)
    assert np.array_equal(a.source_trace.watts, b.source_trace.watts)
    assert np.array_equal(a.target_trace.times, b.target_trace.times)
    assert np.array_equal(a.target_trace.watts, b.target_trace.watts)
    assert np.array_equal(a.features.times, b.features.times)
    for column in a.features.columns:
        assert np.array_equal(a.features.column(column), b.features.column(column))


def _samples_json(result, path) -> bytes:
    save_samples_json(result.samples(), path)
    return path.read_bytes()


class TestGoldenBatchVsRunOnce:
    """run_batch vs run_once: the same bits, per sample, per artifact."""

    @pytest.mark.parametrize("scenario", ARCHETYPES, ids=lambda s: s.label)
    def test_every_trace_bit_identical(self, scenario):
        """Acceptance: every recorded array matches to the last bit."""
        batch = _runner().run_batch(scenario, range(3))
        for index, run in enumerate(batch):
            _assert_runs_identical(_runner().run_once(scenario, run_index=index), run)

    def test_events_telemetry_batches_identically(self):
        scenario = ARCHETYPES[0]
        batch = _runner(telemetry="events").run_batch(scenario, range(2))
        for index, run in enumerate(batch):
            _assert_runs_identical(
                _runner(telemetry="events").run_once(scenario, run_index=index), run
            )

    def test_campaign_samples_json_byte_identical(self, tmp_path):
        """Acceptance: a campaign dispatched as batch tasks writes the
        samples JSON of the serial ``run_once`` loop, byte for byte."""
        scenarios = ARCHETYPES[:2] + ARCHETYPES[-1:]
        reference = _runner().run_campaign(scenarios, min_runs=3, max_runs=3)
        executor = CampaignExecutor(_runner())
        batched = executor.run_campaign(scenarios, min_runs=3, max_runs=3)
        assert _samples_json(batched, tmp_path / "batched.json") == _samples_json(
            reference, tmp_path / "serial.json"
        )

    def test_queue_backend_batched_matches_serial(self, tmp_path):
        """Acceptance: byte-identity holds across the queue backend."""
        scenario = ARCHETYPES[0]
        serial = _runner().run_campaign([scenario], min_runs=3, max_runs=3)
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        executor = CampaignExecutor(
            _runner(), backend="queue", cache_dir=cache, spool_dir=spool,
            queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
        )
        worker = threading.Thread(
            target=run_worker, args=(spool, cache),
            kwargs={"poll_interval": 0.02, "worker_id": "rb0", "idle_exit_s": 60.0},
        )
        worker.start()
        try:
            queued = executor.run_campaign([scenario], min_runs=3, max_runs=3)
        finally:
            worker.join()
        assert _samples_json(queued, tmp_path / "queued.json") == _samples_json(
            serial, tmp_path / "serial.json"
        )

    def test_non_contiguous_indices_match_run_once(self):
        """Cache holes: a resumed batch passes just the missing indices."""
        scenario = ARCHETYPES[1]
        holes = [0, 2, 5, 6, 9]
        batch = _runner().run_batch(scenario, holes)
        assert [r.run_index for r in batch] == holes
        for index, run in zip(holes, batch):
            _assert_runs_identical(_runner().run_once(scenario, run_index=index), run)

    def test_singleton_batch_matches_run_once(self):
        scenario = ARCHETYPES[1]
        single = _runner().run_batch(scenario, [4])
        assert len(single) == 1
        _assert_runs_identical(_runner().run_once(scenario, run_index=4), single[0])


class TestRunCacheKeyPins:
    """Scenario keys of the default protocol, pinned to their hex digests.

    A warmed cache is addressed by these digests: a change to the key
    payload (a settings field added or removed without being excluded)
    would orphan every cached run, so such a change must be deliberate
    and bump ``CACHE_KEY_SCHEMA``.
    """

    # Re-pinned for the ``wavm3-run-cache/5`` bump (host CPU jitter is
    # averaged over the meter period): the schema tag is part of every
    # key, and with the /4 tag this payload hashed to ab70ec73….
    PINNED = {
        "cpuload-source/nonlive/0vm/m": (
            "89aee24ad5063402839b9c9debeedfc202d152619807d0f1350e6a9b7b7db6f4"
        ),
    }

    def test_scripted_key_pinned(self):
        scenario = all_scenarios()[0]
        key = RunCache.scenario_key(
            20150901, scenario, RunnerSettings(), None, StabilizationRule()
        )
        assert key == self.PINNED[scenario.label]

    def test_implementation_fields_do_not_split_the_key(self):
        scenario = all_scenarios()[0]
        keys = {
            RunCache.scenario_key(
                20150901, scenario,
                RunnerSettings(telemetry=telemetry),
                None, StabilizationRule(),
            )
            for telemetry in ("batched", "events")
        }
        assert keys == {self.PINNED[scenario.label]}

    def test_schema_3_entries_are_recomputed_never_served(self, tmp_path, monkeypatch):
        """Runs cached under ``wavm3-run-cache/3`` were keyed with the
        retired ``driver`` field: a cache warmed at /3 (keys and
        ``meta.json`` both carry the old tag) is recomputed by a /4
        campaign, never served."""
        import json

        from repro.experiments import executor as executor_module

        scenarios = [ARCHETYPES[3]]

        def campaign():
            runner = CampaignExecutor(_runner(), jobs=1, cache_dir=tmp_path)
            runner.run_campaign(scenarios, min_runs=2, max_runs=2)
            return runner.stats

        with monkeypatch.context() as patch:
            patch.setattr(executor_module, "CACHE_KEY_SCHEMA", "wavm3-run-cache/3")
            assert campaign().runs_executed == 2
        metas = list(tmp_path.glob("*/*/meta.json"))
        assert metas
        assert {json.loads(meta.read_text(encoding="utf-8"))["schema"] for meta in metas} == {
            "wavm3-run-cache/3"
        }
        stats = campaign()
        assert (stats.runs_executed, stats.runs_cached) == (2, 0)
        assert campaign().runs_cached == 2


class TestRunBatchContracts:
    """run_batch seam regressions: validation and callback safety."""

    def test_all_invalid_indices_reported(self):
        """Every offending index appears in the error, not just the first."""
        with pytest.raises(Exception, match=r"\[-2, 'x', -7\]"):
            _runner().run_batch(ARCHETYPES[1], [0, -2, "x", 3, -7])

    def test_on_run_exception_preserves_deposited_prefix(self):
        """A crashing ``on_run`` loses nothing already deposited.

        Runs 0 and 1 must have been delivered (deposited) before the
        callback raises on run 1; the failure propagates, and a clean
        retry reproduces the exact same results — the partial deposits
        were real, completed runs, not corrupted ones.
        """
        scenario = ARCHETYPES[1]
        deposited = []

        def explode_on_second(run):
            deposited.append(run)
            if len(deposited) == 2:
                raise RuntimeError("deposit failed")

        with pytest.raises(RuntimeError, match="deposit failed"):
            _runner().run_batch(scenario, range(4), on_run=explode_on_second)
        assert [r.run_index for r in deposited] == [0, 1]
        for a, b in zip(_runner().run_batch(scenario, range(2)), deposited):
            _assert_runs_identical(a, b)
