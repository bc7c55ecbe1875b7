"""Persistence round-trips for samples and task specs."""

import json

import numpy as np
import pytest

from repro.experiments.design import MigrationScenario
from repro.experiments.executor import RunCache, RunTask
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.hypervisor.migration import MigrationConfig
from repro.io import (
    SAMPLES_SCHEMA,
    PersistenceError,
    _sample_to_dict,
    decode_record,
    encode_record,
    load_samples_json,
    load_task_spec,
    save_samples_json,
    save_task_spec,
)
from repro.models.features import HostRole, MigrationSample
from repro.models.wavm3 import Wavm3Model
from repro.telemetry.stabilization import StabilizationRule


class TestSamplesJson:
    def test_round_trip_preserves_fit(self, tmp_path, mini_samples):
        path = tmp_path / "samples.json"
        save_samples_json(mini_samples, path)
        loaded = load_samples_json(path)
        assert len(loaded) == len(mini_samples)

        # The reloaded dataset fits to the same coefficients.
        original = Wavm3Model().fit(mini_samples).coefficients.values
        reloaded = Wavm3Model().fit(loaded).coefficients.values
        for role, phases in original.items():
            for phase, coefs in phases.items():
                assert reloaded[role][phase] == pytest.approx(coefs, rel=1e-9)

    def test_roles_preserved(self, tmp_path, mini_samples):
        path = tmp_path / "samples.json"
        save_samples_json(mini_samples[:4], path)
        loaded = load_samples_json(path)
        assert [s.role for s in loaded] == [s.role for s in mini_samples[:4]]

    def test_energies_preserved(self, tmp_path, mini_samples):
        path = tmp_path / "samples.json"
        save_samples_json(mini_samples[:2], path)
        loaded = load_samples_json(path)
        for a, b in zip(mini_samples[:2], loaded):
            assert b.energy_total_j == pytest.approx(a.energy_total_j)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "other/9", "samples": []}')
        with pytest.raises(PersistenceError):
            load_samples_json(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        for garbage in (b"not json at all", b"\xff\xfe{"):  # the second is not UTF-8
            path.write_bytes(garbage)
            with pytest.raises(PersistenceError):
                load_samples_json(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        for document in (
            '{"schema": "wavm3-samples/1", "samples": [{"role": "source"}]}',
            '[{"schema": "wavm3-samples/1"}]',            # not an object
            '{"schema": "wavm3-samples/1"}',              # no samples
            '{"schema": "wavm3-samples/1", "samples": [7]}',  # record not an object
            '{"schema": "wavm3-samples/1", "samples": ["x"]}',
        ):
            path.write_text(document)
            with pytest.raises(PersistenceError):
                load_samples_json(path)


def _synth_samples(count: int = 10, readings: int = 8, seed: int = 7):
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(count):
        samples.append(MigrationSample(
            scenario=f"io/synth/{index}",
            experiment="CPULOAD-SOURCE",
            live=bool(index % 2),
            family="m",
            role=HostRole.SOURCE if index % 2 else HostRole.TARGET,
            run_index=index,
            times=np.arange(1, readings + 1, dtype=np.float64),
            power_w=rng.uniform(40.0, 90.0, readings),
            phase=rng.integers(0, 4, readings).astype(np.int64),
            cpu_host_pct=rng.uniform(0.0, 100.0, readings),
            cpu_vm_pct=rng.uniform(0.0, 100.0, readings),
            bw_bps=rng.uniform(0.0, 1.18e9, readings),
            dr_pct=rng.uniform(0.0, 30.0, readings),
            data_bytes=float(rng.integers(1, 1 << 33)),
            mem_mb=4096.0,
            mean_bw_bps=9.0e8,
            energy_initiation_j=float(rng.uniform(1.0, 10.0)),
            energy_transfer_j=float(rng.uniform(10.0, 400.0)),
            energy_activation_j=float(rng.uniform(1.0, 10.0)),
            downtime_s=float(rng.uniform(0.0, 3.0)),
            notes={"lane": f"l{index % 3}"} if index % 4 == 0 else {},
        ))
    return samples


class TestByteIdentity:
    """The streaming writer's contract: ``save_samples_json`` emits
    exactly the bytes of the one-shot ``json.dumps`` of the whole
    envelope, whether fed a list or a lazy generator."""

    def _assert_matches_one_shot_dump(self, samples, tmp_path):
        reference = json.dumps({
            "schema": SAMPLES_SCHEMA,
            "samples": [_sample_to_dict(sample) for sample in samples],
        }).encode("utf-8")
        from_list = tmp_path / "list.json"
        assert save_samples_json(samples, from_list) == len(samples)
        assert from_list.read_bytes() == reference
        streamed = tmp_path / "streamed.json"
        assert save_samples_json(iter(samples), streamed) == len(samples)
        assert streamed.read_bytes() == reference

    def test_synthetic_samples(self, tmp_path):
        self._assert_matches_one_shot_dump(_synth_samples(count=7), tmp_path)

    def test_empty_sample_set(self, tmp_path):
        self._assert_matches_one_shot_dump([], tmp_path)

    def test_real_campaign_samples(self, tmp_path):
        """Samples of an actual (fast) campaign — both live and non-live
        archetypes — stream out byte for byte as the one-shot dump."""
        runner = ScenarioRunner(seed=20150901, settings=RunnerSettings(
            min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
            check_interval_s=1.0,
        ))
        result = runner.run_campaign(
            [
                MigrationScenario(
                    "CPULOAD-SOURCE", "io/nl/0vm", live=False, load_vm_count=0
                ),
                MigrationScenario(
                    "CPULOAD-SOURCE", "io/lv/1vm", live=True, load_vm_count=1
                ),
            ],
            min_runs=2,
            max_runs=2,
        )
        samples = list(result.iter_samples())
        assert samples
        self._assert_matches_one_shot_dump(samples, tmp_path)


class TestSamplesCli:
    """``wavm3 campaign --samples`` writes through the one samples writer."""

    def test_campaign_samples_match_library_writer(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.experiments import design

        scenario = MigrationScenario(
            "MEMLOAD-VM", "io/cli/lv/dr15", live=True, dirty_percent=15.0
        )
        monkeypatch.setattr(design, "memload_vm_scenarios", lambda family: [scenario])
        out = tmp_path / "out.json"
        code = main([
            "--seed", "3", "campaign", "--experiment", "memload-vm",
            "--runs", "2", "--samples", str(out),
        ])
        assert code == 0
        assert f"samples: 4 samples (json) -> {out}" in capsys.readouterr().out

        result = ScenarioRunner(seed=3).run_campaign([scenario], min_runs=2, max_runs=2)
        reference = tmp_path / "reference.json"
        assert save_samples_json(result.iter_samples(), reference) == 4
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "flag, values", [("aggregate", ["columnar"]), ("speculate", [])]
    )
    def test_retired_flags_are_usage_errors(self, flag, values, tmp_path, capsys):
        """The columnar store and straggler speculation are gone; their
        flags are unknown arguments now."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--samples", str(tmp_path / "x.json"), f"--{flag}", *values])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTaskSpecJson:
    """The distributed queue's wire format: one JSON spec per task."""

    def _task(self, migration_config=None):
        scenario = MigrationScenario(
            "MEMLOAD-VM", "io/taskspec", live=True, dirty_percent=35.0
        )
        settings = RunnerSettings(min_runs=4)
        rule = StabilizationRule(n_readings=12)
        return RunTask(
            seed=77,
            settings=settings,
            migration_config=migration_config,
            stabilization=rule,
            scenario=scenario,
            run_start=3,
            key=RunCache.scenario_key(77, scenario, settings, migration_config, rule),
        )

    def test_round_trip(self, tmp_path):
        task = self._task()
        path = tmp_path / "task.json"
        save_task_spec(task, path)
        assert load_task_spec(path) == task
        assert not list(tmp_path.glob("*.tmp"))  # atomic write cleaned up

    def test_round_trip_with_migration_config(self, tmp_path):
        task = self._task(MigrationConfig(max_iterations=5, round_overhead_s=1.5))
        path = tmp_path / "task.json"
        save_task_spec(task, path)
        loaded = load_task_spec(path)
        assert loaded == task
        assert loaded.migration_config.max_iterations == 5

    def test_dict_round_trip_preserves_key(self):
        task = self._task()
        rebuilt = decode_record(RunTask, encode_record(task))
        assert rebuilt.key == task.key
        assert rebuilt == task

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for garbage in (b"{ not json", b"\xff\xfe{"):  # the second is not UTF-8
            path.write_bytes(garbage)
            with pytest.raises(PersistenceError):
                load_task_spec(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "wrong.json"
        payload = encode_record(self._task())
        payload["schema"] = "wavm3-taskspec/0"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_task_spec(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        payload = encode_record(self._task())
        del payload["settings"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_task_spec(path)

    def test_invalid_field_value_rejected(self, tmp_path):
        path = tmp_path / "invalid.json"
        payload = encode_record(self._task())
        payload["scenario"]["family"] = "z"  # fails MigrationScenario validation
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_task_spec(path)
