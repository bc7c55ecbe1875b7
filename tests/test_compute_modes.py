"""The ``compute=`` kernel axis: bit-identity and its building blocks.

The tentpole guarantee: ``RunnerSettings(compute="python")`` (the
all-scalar reference) and ``"numpy"`` (the vectorized default) produce
**byte-identical** campaign samples JSON — same RNG stream consumption,
same float operations, on every scenario archetype and on serial and
distributed backends alike.  The unit tests pin the equivalences the
array kernels rest on: the vectorized sampler tick grid, the contiguous
noise tick grids, and the host/VM kernels against their scalar
counterparts.
"""

import threading

import numpy as np
import pytest

from repro.cluster import PhysicalHost, machine_spec
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import CampaignExecutor, RunCache
from repro.experiments.queue_backend import run_worker
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.hypervisor import VirtualMachine
from repro.io import save_samples_json
from repro.simulator.kernels import (
    COMPUTE_MODES,
    NoiseTickGrid,
    sampler_tick_grid,
    validate_compute,
)
from repro.simulator.noise import hash_normal_unit, hash_normal_unit_fill
from repro.telemetry.stabilization import StabilizationRule
from repro.workloads import MatrixMultWorkload

#: Fast protocol settings for cross-mode sweeps (shape preserved: warmup,
#: stabilisation checks, migration wait, post-measurement all exercised).
FAST = dict(
    min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
    check_interval_s=1.0,
)

#: One scenario per archetype of the Table IIa design.
ARCHETYPES = [
    MigrationScenario("CPULOAD-SOURCE", "comp/lv/1vm", live=True, load_vm_count=1),
    MigrationScenario("CPULOAD-SOURCE", "comp/nl/0vm", live=False, load_vm_count=0),
    MigrationScenario(
        "CPULOAD-TARGET", "comp/lv/tgt3", live=True, load_vm_count=3, load_on="target"
    ),
    MigrationScenario("MEMLOAD-VM", "comp/lv/dr55", live=True, dirty_percent=55.0),
    MigrationScenario(
        "MEMLOAD-SOURCE", "comp/lv/mem", live=True, load_vm_count=1,
        dirty_percent=95.0,
    ),
]

MODES = list(COMPUTE_MODES)


def _runner(mode: str, seed: int, **overrides) -> ScenarioRunner:
    settings = RunnerSettings(compute=mode, **{**FAST, **overrides})
    return ScenarioRunner(seed=seed, settings=settings)


class TestGoldenCrossMode:
    """python vs numpy: the same bits, per sample, per artifact."""

    @pytest.mark.parametrize("seed", [0, 20150901])
    def test_campaign_samples_json_byte_identical(self, tmp_path, seed):
        """Acceptance: the campaign samples JSON is byte-identical."""
        blobs = {}
        for mode in MODES:
            result = _runner(mode, seed).run_campaign(
                ARCHETYPES, min_runs=2, max_runs=2
            )
            path = tmp_path / f"{mode}-{seed}.json"
            save_samples_json(result.samples(), path)
            blobs[mode] = path.read_bytes()
        reference = blobs["python"]
        for mode in MODES[1:]:
            assert blobs[mode] == reference, f"compute={mode!r} diverged"

    @pytest.mark.parametrize("scenario", ARCHETYPES, ids=lambda s: s.label)
    def test_every_trace_bit_identical(self, scenario):
        """Beyond the JSON: every recorded array matches to the last bit."""
        a = _runner("python", 7).run_once(scenario, 0)
        b = _runner("numpy", 7).run_once(scenario, 0)
        assert np.array_equal(a.source_trace.times, b.source_trace.times)
        assert np.array_equal(a.source_trace.watts, b.source_trace.watts)
        assert np.array_equal(a.target_trace.times, b.target_trace.times)
        assert np.array_equal(a.target_trace.watts, b.target_trace.watts)
        assert np.array_equal(a.features.times, b.features.times)
        for column in a.features.columns:
            assert np.array_equal(a.features.column(column), b.features.column(column))
        assert a.timeline.ms == b.timeline.ms
        assert a.timeline.me == b.timeline.me
        assert a.timeline.bytes_total == b.timeline.bytes_total

    def test_dstat_traces_bit_identical(self):
        from repro.experiments.testbed import Testbed

        beds = {}
        for mode in MODES:
            bed = Testbed(seed=11, compute=mode)
            bed.start_instrumentation()
            for _ in range(10):
                bed.sim.run_for(2.5)
            bed.stop_instrumentation()
            beds[mode] = bed
        for attr in ("source_dstat", "target_dstat"):
            ref = getattr(beds["python"], attr).trace
            for mode in MODES[1:]:
                other = getattr(beds[mode], attr).trace
                assert np.array_equal(ref.times, other.times)
                for column in ref.columns:
                    assert np.array_equal(ref.column(column), other.column(column))

    def test_distributed_queue_backend_matches_serial_reference(self, tmp_path):
        """Acceptance: byte-identity holds across a distributed backend.

        A queue-backed campaign computing in the vectorized default mode
        must reproduce the serial all-scalar reference byte for byte.
        """
        scenario = ARCHETYPES[0]
        serial = _runner("python", 3).run_campaign([scenario], min_runs=2, max_runs=2)
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        executor = CampaignExecutor(
            _runner("numpy", 3), backend="queue", cache_dir=cache, spool_dir=spool,
            queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
        )
        worker = threading.Thread(
            target=run_worker, args=(spool, cache),
            kwargs={"poll_interval": 0.02, "worker_id": "cm0", "idle_exit_s": 60.0},
        )
        worker.start()
        try:
            queued = executor.run_campaign([scenario], min_runs=2, max_runs=2)
        finally:
            worker.join()
        blobs = {}
        for name, result in (("serial", serial), ("queued", queued)):
            path = tmp_path / f"{name}.json"
            save_samples_json(result.samples(), path)
            blobs[name] = path.read_bytes()
        assert blobs["serial"] == blobs["queued"]

    def test_compute_mode_does_not_split_the_cache_key(self):
        scenario = ARCHETYPES[0]
        keys = {
            mode: RunCache.scenario_key(
                1, scenario, RunnerSettings(compute=mode), None, StabilizationRule()
            )
            for mode in COMPUTE_MODES
        }
        assert len(set(keys.values())) == 1


class TestModeSelection:
    def test_validate_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            validate_compute("cython")
        assert validate_compute("python") == "python"

    def test_testbed_rejects_unknown_mode(self):
        from repro.experiments.testbed import Testbed

        with pytest.raises(ConfigurationError):
            Testbed(seed=0, compute="fortran")

    def test_runner_settings_reject_unknown_mode(self):
        with pytest.raises(ExperimentError):
            RunnerSettings(compute="fortran")

    def test_cli_exposes_compute_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["--compute", "python", "scenarios"])
        assert args.compute == "python"
        assert build_parser().parse_args(["scenarios"]).compute == "numpy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--compute", "fortran", "scenarios"])


class TestSamplerTickGrid:
    def _scalar_ticks(self, base, k0, period, t1):
        """The scalar generation loop sampler_tick_grid must replay."""
        ticks, k = [], k0
        while True:
            t = base + k * period
            if t > t1:
                break
            ticks.append(t)
            k += 1
        return ticks, k

    @pytest.mark.parametrize(
        "base,k0,period,t1",
        [
            (0.25, 1, 0.5, 30.0),
            (0.25, 7, 0.5, 3.6),
            (0.1, 0, 1.0, 0.05),       # no tick in the interval
            (1.0 / 3.0, 2, 0.1, 7.77),  # awkward binary fractions
            (0.0, 5, 0.5, 2.5),         # boundary tick exactly at t1
            (123456.75, 10, 0.5, 123500.0),
        ],
    )
    def test_matches_scalar_loop(self, base, k0, period, t1):
        expected_ticks, expected_k = self._scalar_ticks(base, k0, period, t1)
        grid, next_k = sampler_tick_grid(base, k0, period, t1)
        assert next_k == expected_k
        if not expected_ticks:
            assert grid is None
        else:
            assert grid.tolist() == expected_ticks  # exact float equality

    def test_matches_scalar_loop_swept(self):
        for k0 in range(0, 40, 3):
            for n1000 in range(0, 5000, 171):
                t1 = n1000 / 1000.0
                expected_ticks, expected_k = self._scalar_ticks(0.25, k0, 0.5, t1)
                grid, next_k = sampler_tick_grid(0.25, k0, 0.5, t1)
                assert next_k == expected_k
                assert (grid.tolist() if grid is not None else []) == expected_ticks


class TestNoiseTickGrid:
    def test_fill_matches_scalar_draws(self):
        values = hash_normal_unit_fill(9, "cpu:m01", -3, 17)
        assert values.shape == (20,)
        for i, tick in enumerate(range(-3, 17)):
            assert values[i] == hash_normal_unit(9, "cpu:m01", tick)

    def test_grid_extends_without_changing_values(self):
        grid = NoiseTickGrid(5, "cpu:m01")
        first = grid.value(10)
        assert grid.size == 1
        before = grid.value(2)   # extends at the front
        after = grid.value(20)   # extends at the back
        assert grid.size == 19
        assert grid.value(10) == first == hash_normal_unit(5, "cpu:m01", 10)
        assert before == hash_normal_unit(5, "cpu:m01", 2)
        assert after == hash_normal_unit(5, "cpu:m01", 20)

    def test_gather_pair_matches_scalar_draws(self):
        grid = NoiseTickGrid(5, "cpu:m01")
        cur = np.arange(4, 12, dtype=np.int64)
        prv = cur - 1
        cur_v, prv_v = grid.gather_pair(cur, prv)
        for i in range(cur.size):
            assert cur_v[i] == hash_normal_unit(5, "cpu:m01", int(cur[i]))
            assert prv_v[i] == hash_normal_unit(5, "cpu:m01", int(prv[i]))


class TestKernelVsScalar:
    """Direct array-kernel vs scalar-kernel equality on live state."""

    def _bed(self):
        from repro.experiments.testbed import Testbed

        bed = Testbed(seed=3, compute="numpy")
        bed.sim.run_for(1.0)  # move off t=0 so prev ticks are in range
        return bed

    def test_power_block_matches_scalar_kernel(self):
        bed = self._bed()
        times_list = [1.0 + 0.5 * k for k in range(1, 40)]
        times = np.asarray(times_list, dtype=np.float64)
        kernel = bed.source.attach_kernel()
        vec = kernel.power_block(times, times_list)
        scalar = bed.source.instantaneous_power_values(times_list)
        assert vec.tolist() == scalar  # exact float equality

    def test_util_block_matches_published_memo(self):
        bed = self._bed()
        times_list = [1.0 + 0.5 * k for k in range(1, 40)]
        times = np.asarray(times_list, dtype=np.float64)
        kernel = bed.target.attach_kernel()
        u = kernel.util_block(times, times_list)
        # The block published every read into the host's per-timestamp
        # memo, which the scalar short-block readers consume.
        for t, value in zip(times_list, u.tolist()):
            assert bed.target.cpu_utilisation_fraction_cached(t) == value
        # A second read serves fully from the memo — identical bits.
        assert kernel.util_block(times, times_list).tolist() == u.tolist()

    def test_vm_cpu_percent_block_matches_scalar_kernel(self):
        vm = VirtualMachine(
            "kern", 4, 512, MatrixMultWorkload(vm_ram_mb=512), noise_seed=17
        )
        vm.mark_running()
        kernel = vm.attach_kernel()
        times_list = [1.0 + 0.5 * k for k in range(1, 40)]
        times = np.asarray(times_list, dtype=np.float64)
        vec = kernel.cpu_percent_block(times, times_list)
        scalar = vm.cpu_percent_values(times_list)
        assert vec.tolist() == scalar

    def test_stopped_vm_reads_zero(self):
        vm = VirtualMachine("idle", 1, 512, noise_seed=1)
        kernel = vm.attach_kernel()
        times_list = [0.5, 1.0, 1.5]
        times = np.asarray(times_list, dtype=np.float64)
        assert kernel.cpu_percent_block(times, times_list).tolist() == [0.0, 0.0, 0.0]


class TestHostKernelRefresh:
    def test_static_envelope_mirrors_power_params(self):
        host = PhysicalHost(machine_spec("m01"), noise_seed=3)
        kernel = host.attach_kernel()
        params = host.power_model.params
        assert kernel._idle == params.idle_w
        assert kernel._host_floor == 0.3 * params.idle_w
        assert kernel._drift_sigma == params.drift_sigma_w

    def test_attach_is_idempotent(self):
        host = PhysicalHost(machine_spec("m01"), noise_seed=3)
        assert host.attach_kernel() is host.attach_kernel()

    def test_refresh_tracks_cpu_version(self):
        host = PhysicalHost(machine_spec("m01"), noise_seed=3)
        kernel = host.attach_kernel()
        kernel.refresh()
        idle_base = kernel._base
        host.cpu.set_demand("load", 4.0)
        kernel.refresh()
        assert kernel._base > idle_base
        assert kernel._base == host.cpu.utilisation_fraction()
        assert kernel.cpu_version == host.cpu._version
