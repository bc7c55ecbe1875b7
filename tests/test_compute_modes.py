"""How a batched run computes its samples: the interval kernels.

The batched path delivers each event-free interval to the instruments as
one block, and the interval kernels (:mod:`repro.simulator.kernels`)
evaluate it against per-stream noise memos.  The guarantee is that *how*
the samples are grouped into blocks never shows in the bytes: a run whose
intervals are cut into many short blocks, the default run and the
per-sample event path (the oracle) write byte-identical campaign samples
JSON, on every scenario archetype and on the serial and distributed
backends.  The unit tests pin what that rests on: the sampler's tick grid,
the noise tick memo, and each kernel against the event-mode reads, for
every split of a window into blocks (a property test).
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PhysicalHost, machine_spec
from repro.experiments.design import MigrationScenario, all_scenarios
from repro.experiments.executor import CampaignExecutor, RunCache, RunTask
from repro.experiments.queue_backend import run_worker
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.hypervisor import VirtualMachine
from repro.io import save_samples_json
from repro.simulator import noise
from repro.simulator.engine import Simulator
from repro.simulator.noise import hash_normal_unit, hash_normal_unit_fill, memoise_ticks
from repro.simulator.sampling import PeriodicSampler
from repro.telemetry.stabilization import StabilizationRule
from repro.workloads import MatrixMultWorkload

#: Fast protocol settings for cross-split sweeps (shape preserved: warmup,
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


class SplitRunner(ScenarioRunner):
    """A runner whose event-free intervals are cut every ``gap`` seconds.

    A recurring no-op event ends the interval the instruments see, so
    every block of the default run arrives as several shorter blocks.
    """

    def __init__(self, *args, gap: float = 0.7, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gap = gap

    def build_testbed(self, scenario, run_index):
        bed = super().build_testbed(scenario, run_index)

        def cut() -> None:
            bed.sim.schedule(self.gap, cut)

        bed.sim.schedule(self.gap, cut)
        return bed


def _runner(mode: str, seed: int) -> ScenarioRunner:
    """``"split"``: batched with short blocks; else the telemetry mode."""
    if mode == "split":
        return SplitRunner(seed=seed, settings=RunnerSettings(**FAST))
    return ScenarioRunner(seed=seed, settings=RunnerSettings(telemetry=mode, **FAST))


class TestGoldenCrossMode:
    """Short blocks, default blocks, per-sample events: the same bits."""

    @pytest.mark.parametrize("seed", [0, 20150901])
    def test_campaign_samples_json_byte_identical(self, tmp_path, seed):
        """Acceptance: the campaign samples JSON is byte-identical."""
        blobs = {}
        for mode in ("events", "batched", "split"):
            result = _runner(mode, seed).run_campaign(
                ARCHETYPES, min_runs=2, max_runs=2
            )
            path = tmp_path / f"{mode}-{seed}.json"
            save_samples_json(result.samples(), path)
            blobs[mode] = path.read_bytes()
        assert blobs["batched"] == blobs["events"]
        assert blobs["split"] == blobs["events"]

    @pytest.mark.parametrize("scenario", ARCHETYPES, ids=lambda s: s.label)
    def test_every_trace_bit_identical(self, scenario):
        """Beyond the JSON: every recorded array matches to the last bit."""
        a = _runner("events", 7).run_once(scenario, 0)
        b = _runner("split", 7).run_once(scenario, 0)
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
        """One 25 s block, ten 2.5 s blocks and per-second events agree."""
        from repro.experiments.testbed import Testbed
        from repro.telemetry.dstat import DstatMonitor

        traces = {}
        for mode, strides in (("events", 10), ("batched", 10), ("long", 1)):
            bed = Testbed(seed=11, telemetry="events" if mode == "events" else "batched")
            dstats = [
                DstatMonitor(bed.sim, host, batched=mode != "events")
                for host in (bed.source, bed.target)
            ]
            bed.start_instrumentation()
            for dstat in dstats:
                dstat.start()
            for _ in range(strides):
                bed.sim.run_for(25.0 / strides)
            bed.stop_instrumentation()
            for dstat in dstats:
                dstat.stop()
            traces[mode] = [dstat.trace for dstat in dstats]
        for i, ref in enumerate(traces["events"]):
            assert len(ref) == 25
            for mode in ("batched", "long"):
                other = traces[mode][i]
                assert np.array_equal(ref.times, other.times)
                for column in ref.columns:
                    assert np.array_equal(ref.column(column), other.column(column))

    def test_distributed_queue_backend_matches_serial_reference(self, tmp_path):
        """Acceptance: byte-identity holds across a distributed backend.

        A queue-backed campaign computing on the batched path must
        reproduce the serial per-sample event reference byte for byte.
        """
        scenario = ARCHETYPES[0]
        serial = _runner("events", 3).run_campaign([scenario], min_runs=2, max_runs=2)
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        executor = CampaignExecutor(
            _runner("batched", 3), backend="queue", cache_dir=cache, spool_dir=spool,
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
        """Retiring the ``compute`` setting kept every cache key: this
        task's key, with the two later deliberate payload changes undone
        (the ``wavm3-run-cache/4`` tag and the dropped scenario ``driver``
        field), is the literal computed while the field still existed
        (and was popped from the key payload)."""
        task = RunTask(
            seed=7, settings=RunnerSettings(), migration_config=None,
            stabilization=StabilizationRule(), scenario=all_scenarios()[5],
            run_start=3, run_count=4,
        )
        assert task.scenario.label == "cpuload-source/nonlive/8vm/m"
        payload = task.key_payload()
        assert payload["schema"] == "wavm3-run-cache/4"
        payload["schema"] = "wavm3-run-cache/3"
        payload["scenario"]["driver"] = "scripted"
        assert RunCache._payload_digest(payload) == (
            "a72d2533b9340553a8a3ac2601b4eb9f4820d141aa4ddfbdcbca0ad9967ed132"
        )


class TestModeSelection:
    def test_testbed_rejects_unknown_mode(self):
        from repro.experiments.testbed import Testbed

        with pytest.raises(TypeError):
            Testbed(seed=0, compute="numpy")

    def test_runner_settings_reject_unknown_mode(self):
        with pytest.raises(TypeError):
            RunnerSettings(compute="numpy")


class TestSamplerTickGrid:
    """The batched sampler's tick grid against the scalar expression."""

    def _scalar_ticks(self, base, k0, period, t1):
        """Every ``base + k * period <= t1`` with ``k >= k0``."""
        ticks, k = [], k0
        while True:
            t = base + k * period
            if t > t1:
                break
            ticks.append(t)
            k += 1
        return ticks, k

    def _batched_ticks(self, base, k0, period, t1):
        blocks = []
        sampler = PeriodicSampler(
            Simulator(), period, lambda t: None, phase=base, batched=True,
            batch_callback=blocks.append,
        )
        sampler.start()
        if k0:
            sampler.advance_to(base + (k0 - 1) * period)
            assert sampler.samples_taken == k0
            blocks.clear()
        sampler.advance_to(t1)
        return [t for block in blocks for t in block], sampler.samples_taken

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
        ticks, next_k = self._batched_ticks(base, k0, period, t1)
        assert next_k == expected_k
        assert ticks == expected_ticks  # exact float equality

    def test_matches_scalar_loop_swept(self):
        for k0 in range(0, 40, 3):
            for n1000 in range(0, 5000, 171):
                t1 = n1000 / 1000.0
                expected_ticks, expected_k = self._scalar_ticks(0.25, k0, 0.5, t1)
                ticks, next_k = self._batched_ticks(0.25, k0, 0.5, t1)
                assert next_k == expected_k
                assert ticks == expected_ticks


class TestNoiseTickGrid:
    """The per-stream noise tick memo the kernels read from."""

    def test_fill_matches_scalar_draws(self):
        values = hash_normal_unit_fill(9, "cpu:m01", -3, 17)
        assert len(values) == 20
        for i, tick in enumerate(range(-3, 17)):
            assert values[i] == hash_normal_unit(9, "cpu:m01", tick)

    def test_grid_extends_without_changing_values(self):
        memo = {}
        memoise_ticks(5, "cpu:m01", memo, 10, 10)
        first = memo[10]
        assert len(memo) == 1
        memoise_ticks(5, "cpu:m01", memo, 2, 10)   # extends at the front
        memoise_ticks(5, "cpu:m01", memo, 10, 20)  # extends at the back
        assert sorted(memo) == list(range(2, 21))
        assert memo[10] == first == hash_normal_unit(5, "cpu:m01", 10)
        assert memo[2] == hash_normal_unit(5, "cpu:m01", 2)
        assert memo[20] == hash_normal_unit(5, "cpu:m01", 20)

    def test_gather_pair_matches_scalar_draws(self, monkeypatch):
        """A block's (current, previous) tick pairs are all memoised by one
        fill of the missing range, with the scalar draws."""
        fills = []
        original = noise.hash_normal_unit_fill

        def counting(seed, key, lo, hi):
            fills.append((lo, hi))
            return original(seed, key, lo, hi)

        monkeypatch.setattr(noise, "hash_normal_unit_fill", counting)
        memo = {4: hash_normal_unit(5, "cpu:m01", 4)}
        times = [2.0 + 0.5 * k for k in range(1, 9)]
        memoise_ticks(5, "cpu:m01", memo, math.floor((times[0] - 0.5) / 0.5),
                      math.floor(times[-1] / 0.5))
        assert fills == [(5, 13)]
        for t in times:
            for tick in (math.floor(t / 0.5), math.floor((t - 0.5) / 0.5)):
                assert memo[tick] == hash_normal_unit(5, "cpu:m01", tick)


def _loaded_host(seed: int = 3) -> PhysicalHost:
    host = PhysicalHost(machine_spec("m01"), noise_seed=seed)
    host.cpu.set_demand("load", 9.0)
    host.set_memory_activity("m", 0.3)
    host.set_nic_flow("f", tx_bps=1e8)
    return host


class TestKernelVsScalar:
    """Each kernel against the per-sample event-mode read."""

    def test_power_block_matches_scalar_kernel(self):
        times = [1.0 + 0.5 * k for k in range(1, 40)]
        oracle = _loaded_host()
        expected = [oracle.instantaneous_power(t) for t in times]
        host = _loaded_host()
        assert host.kernel.power_block(times) == expected  # exact float equality
        assert host.instantaneous_power_values(times) == expected

    def test_util_block_matches_published_memo(self):
        times = [1.0 + 0.5 * k for k in range(1, 40)]
        host = _loaded_host()
        host.instantaneous_power_values(times)
        # The power block published every jittered read into the host's
        # per-timestamp memo, which the CPU readers that follow consume.
        assert all(t in host._util_read_cache for t in times)
        u = host.kernel.util_block(times)
        assert u == [host._util_read_cache[t] for t in times]
        oracle = _loaded_host()
        assert u == [oracle.cpu_utilisation_fraction(t) for t in times]

    def test_vm_cpu_percent_block_matches_scalar_kernel(self):
        vm = VirtualMachine(
            "kern", 4, 512, MatrixMultWorkload(vm_ram_mb=512), noise_seed=17
        )
        vm.mark_running()
        times = [1.0 + 0.5 * k for k in range(1, 40)]
        expected = [vm.cpu_percent(t) for t in times]
        assert vm.kernel.cpu_percent_block(times) == expected
        assert vm.cpu_percent_values(times) == expected

    def test_stopped_vm_reads_zero(self):
        vm = VirtualMachine("idle", 1, 512, noise_seed=1)
        assert vm.kernel.cpu_percent_block([0.5, 1.0, 1.5]) == [0.0, 0.0, 0.0]


def _split(times: list, sizes: list) -> list:
    """``times`` cut into consecutive blocks of the given sizes (cycled)."""
    blocks, i, k = [], 0, 0
    while i < len(times):
        size = sizes[k % len(sizes)]
        blocks.append(times[i:i + size])
        i += size
        k += 1
    return blocks


class TestBlockSplitProperty:
    """Any split of an event-free window into blocks of 1–64 samples
    reads exactly what the event path reads per sample."""

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=400),
        count=st.integers(min_value=1, max_value=200),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=8),
        demand=st.floats(min_value=0.0, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_host_power_and_cpu_blocks(self, start, count, sizes, demand, seed):
        # Meter-grid windows starting up to 200 s in; the drift quantum
        # is 40 s, so many windows cross one or more drift boundaries.
        times = [0.25 + 0.5 * (start + k) for k in range(count)]
        oracle = PhysicalHost(machine_spec("m01"), noise_seed=seed)
        oracle.cpu.set_demand("load", demand)
        host = PhysicalHost(machine_spec("m01"), noise_seed=seed)
        host.cpu.set_demand("load", demand)
        dstat_host = PhysicalHost(machine_spec("m01"), noise_seed=seed)
        dstat_host.cpu.set_demand("load", demand)
        power, cpu, dstat_cpu = [], [], []
        for block in _split(times, sizes):
            power += host.kernel.power_block(block)
            cpu += host.kernel.util_block(block)  # served from the memo
            dstat_cpu += dstat_host.kernel.util_block(block)  # computed
        assert power == [oracle.instantaneous_power(t) for t in times]
        expected_cpu = [oracle.cpu_utilisation_fraction(t) for t in times]
        assert cpu == expected_cpu
        assert dstat_cpu == expected_cpu

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=400),
        count=st.integers(min_value=1, max_value=200),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=8),
        running=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_vm_cpu_blocks(self, start, count, sizes, running, seed):
        times = [0.25 + 0.5 * (start + k) for k in range(count)]

        def make_vm():
            vm = VirtualMachine(
                "prop", 4, 512, MatrixMultWorkload(vm_ram_mb=512), noise_seed=seed
            )
            if running:
                vm.mark_running()
            return vm

        oracle, vm = make_vm(), make_vm()
        values = []
        for block in _split(times, sizes):
            values += vm.kernel.cpu_percent_block(block)
        assert values == [oracle.cpu_percent(t) for t in times]


class TestOneHashPerTick:
    def test_a_paper_run_hashes_each_tick_at_most_once(self, monkeypatch):
        """Every noise draw of one paper scenario run is hashed once: the
        instruments sharing a host, and the blocks of one instrument,
        all read one memo per ``(seed, key)`` stream."""
        from repro.cluster import host as host_module

        counts: dict = {}
        unit, fill = noise.hash_normal_unit, noise.hash_normal_unit_fill

        def counted_unit(seed, key, tick):
            counts[(seed, key, tick)] = counts.get((seed, key, tick), 0) + 1
            return unit(seed, key, tick)

        def counted_fill(seed, key, lo, hi):
            for tick in range(lo, hi):
                counts[(seed, key, tick)] = counts.get((seed, key, tick), 0) + 1
            return fill(seed, key, lo, hi)

        monkeypatch.setattr(noise, "hash_normal_unit", counted_unit)
        monkeypatch.setattr(noise, "hash_normal_unit_fill", counted_fill)
        monkeypatch.setattr(host_module, "hash_normal_unit", counted_unit)
        scenario = next(s for s in all_scenarios() if s.live and s.load_vm_count)
        ScenarioRunner(seed=7).run_once(scenario, 0)
        assert len(counts) > 1000
        repeated = {k: n for k, n in counts.items() if n > 1}
        assert repeated == {}


class TestHostKernelRefresh:
    def test_static_envelope_mirrors_power_params(self):
        host = PhysicalHost(machine_spec("m01"), noise_seed=3)
        kernel = host.kernel
        params = host.power_model.params
        assert kernel._idle == params.idle_w
        assert kernel._host_floor == 0.3 * params.idle_w
        assert kernel._drift_sigma == params.drift_sigma_w

    def test_refresh_tracks_cpu_version(self):
        host = PhysicalHost(machine_spec("m01"), noise_seed=3)
        kernel = host.kernel
        kernel.refresh()
        idle_base = kernel._base
        host.cpu.set_demand("load", 4.0)
        kernel.refresh()
        assert kernel._base > idle_base
        assert kernel._base == host.cpu.utilisation_fraction()
        assert kernel.cpu_version == host.cpu._version
