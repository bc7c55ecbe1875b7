"""The batched telemetry fast path: bit-identity and its building blocks.

The tentpole guarantee: ``RunnerSettings(telemetry="batched")`` produces
**bit-identical** results to the per-sample event path — same RNG stream
consumption order, same float operations.  The seed-sweep golden test
asserts byte-identical campaign samples JSON across every scenario
archetype; the unit tests pin the equivalences the kernel's design rests
on (numpy draw-order, rounding, tick grids, incremental trackers,
noise streams).
"""

import math

import numpy as np
import pytest

from repro.errors import TraceError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import RunCache
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.hypervisor.memory import VmMemory
from repro.io import save_samples_json
from repro.simulator.engine import Simulator
from repro.simulator.noise import (
    NoiseStream,
    hash_normal,
    hash_normal_unit,
    ou_like_noise,
    ou_like_noise_values,
)
from repro.simulator.sampling import PeriodicSampler
from repro.telemetry.stabilization import (
    StabilizationRule,
    StabilizationTracker,
    is_stable,
)

#: Fast protocol settings for cross-path sweeps (shape preserved: warmup,
#: stabilisation checks, migration wait, post-measurement all exercised).
FAST = dict(
    min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
    check_interval_s=1.0,
)

#: One scenario per archetype of the Table IIa design.
ARCHETYPES = [
    MigrationScenario("CPULOAD-SOURCE", "gold/lv/1vm", live=True, load_vm_count=1),
    MigrationScenario("CPULOAD-SOURCE", "gold/nl/0vm", live=False, load_vm_count=0),
    MigrationScenario(
        "CPULOAD-TARGET", "gold/lv/tgt3", live=True, load_vm_count=3, load_on="target"
    ),
    MigrationScenario("MEMLOAD-VM", "gold/lv/dr55", live=True, dirty_percent=55.0),
    MigrationScenario(
        "MEMLOAD-SOURCE", "gold/lv/mem", live=True, load_vm_count=1,
        dirty_percent=95.0,
    ),
]


def _runner(mode: str, seed: int, **overrides) -> ScenarioRunner:
    settings = RunnerSettings(telemetry=mode, **{**FAST, **overrides})
    return ScenarioRunner(seed=seed, settings=settings)


class TestGoldenCrossPath:
    """events vs batched: the same bits, per sample, per artifact."""

    @pytest.mark.parametrize("seed", [0, 20150901])
    def test_campaign_samples_json_byte_identical(self, tmp_path, seed):
        """Acceptance: the campaign samples JSON is byte-identical."""
        blobs = {}
        for mode in ("events", "batched"):
            result = _runner(mode, seed).run_campaign(
                ARCHETYPES, min_runs=2, max_runs=2
            )
            path = tmp_path / f"{mode}-{seed}.json"
            save_samples_json(result.samples(), path)
            blobs[mode] = path.read_bytes()
        assert blobs["events"] == blobs["batched"]

    @pytest.mark.parametrize("scenario", ARCHETYPES, ids=lambda s: s.label)
    def test_every_trace_bit_identical(self, scenario):
        """Beyond the JSON: every recorded array matches to the last bit."""
        a = _runner("events", 7).run_once(scenario, 0)
        b = _runner("batched", 7).run_once(scenario, 0)
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
        from repro.telemetry.dstat import DstatMonitor

        traces = {}
        for mode in ("events", "batched"):
            bed = Testbed(seed=11, telemetry=mode)
            dstats = [
                DstatMonitor(bed.sim, host, batched=mode == "batched")
                for host in (bed.source, bed.target)
            ]
            bed.start_instrumentation()
            for dstat in dstats:
                dstat.start()
            for _ in range(10):
                bed.sim.run_for(2.5)
            bed.stop_instrumentation()
            for dstat in dstats:
                dstat.stop()
            traces[mode] = [dstat.trace for dstat in dstats]
        for ta, tb in zip(traces["events"], traces["batched"]):
            assert len(ta) == 25
            assert np.array_equal(ta.times, tb.times)
            for column in ta.columns:
                assert np.array_equal(ta.column(column), tb.column(column))

    def test_telemetry_mode_does_not_split_the_cache_key(self):
        scenario = ARCHETYPES[0]
        keys = {
            mode: RunCache.scenario_key(
                1, scenario, RunnerSettings(telemetry=mode), None, StabilizationRule()
            )
            for mode in ("events", "batched")
        }
        assert keys["events"] == keys["batched"]

    def test_invalid_telemetry_mode_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            RunnerSettings(telemetry="vectorised")


def _capacities(trace) -> set:
    """Buffer sizes of a trace's timestamps and of every value column."""
    if hasattr(trace, "_cols"):
        return {trace._t.size, *(buf.size for buf in trace._cols.values())}
    return {trace._t.size, trace._w.size}


class TestFinishedTraces:
    """Stopped instruments keep exact-size traces, in both telemetry modes."""

    @pytest.mark.parametrize("mode", ["events", "batched"])
    def test_run_once_traces_are_exact_size(self, mode):
        run = _runner(mode, 7).run_once(ARCHETYPES[3], 0)
        for trace in (run.source_trace, run.target_trace, run.features):
            assert _capacities(trace) == {len(trace)}, trace.label

    @pytest.mark.parametrize("mode", ["events", "batched"])
    def test_stopped_meter_restarts_and_records(self, mode):
        from repro.experiments.testbed import Testbed
        from repro.telemetry.dstat import DstatMonitor

        bed = Testbed(seed=11, telemetry=mode)
        meter = bed.source_meter
        dstat = DstatMonitor(bed.sim, bed.source, batched=mode == "batched")
        for instrument in (meter, dstat):
            instrument.start()
        bed.sim.run_for(40.0)
        for instrument in (meter, dstat):
            instrument.stop()
        first = meter.trace.watts
        assert (len(meter.trace), len(dstat.trace)) == (80, 40)
        assert _capacities(meter.trace) == {80}
        assert _capacities(dstat.trace) == {40}
        bed.sim.run_for(5.0)  # stopped: nothing recorded
        for instrument in (meter, dstat):
            instrument.start()
        bed.sim.run_for(10.0)
        for instrument in (meter, dstat):
            instrument.stop()
        assert len(meter.trace) == 100 and len(dstat.trace) == 50
        for trace in (meter.trace, dstat.trace):
            assert _capacities(trace) == {len(trace)}
            assert np.all(np.diff(trace.times) > 0)
            assert trace.times[-1] <= 55.0
        assert meter.trace.times[80] > 45.0 and dstat.trace.times[40] > 45.0
        assert np.array_equal(meter.trace.watts[:80], first)
        assert np.all(meter.trace.watts > 0)


class TestRngDrawOrderEquivalence:
    """The numpy facts the batched meter relies on, pinned as tests."""

    def test_array_normal_matches_scalar_sequence(self):
        sigma = np.abs(np.random.default_rng(7).normal(1.0, 0.4, 500)) + 1e-6
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        scalars = np.array([float(a.normal(0.0, s)) for s in sigma])
        block = b.normal(0.0, sigma)
        assert np.array_equal(scalars, block)
        assert float(a.random()) == float(b.random())  # same stream position

    def test_scaled_standard_normal_matches_scalar_normal(self):
        sigma = [0.3, 2.5, 0.001, 9.0, 1.0]
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        scalars = [float(a.normal(0.0, s)) for s in sigma]
        z = b.standard_normal(len(sigma))
        scaled = [s * float(zz) for s, zz in zip(sigma, z)]
        assert scalars == scaled
        assert float(a.random()) == float(b.random())

    def test_np_round_matches_python_round(self):
        x = np.random.default_rng(0).normal(0.0, 900.0, 20000)
        q = 0.1
        scalar = np.array([round(v / q) * q for v in x.tolist()])
        vector = np.round(x / q) * q
        assert np.array_equal(scalar, vector)


class TestNoiseMemo:
    def test_hash_normal_unit_matches_hash_normal(self):
        for tick in (-3, 0, 1, 17, 40001):
            t = tick * 0.5
            assert hash_normal_unit(99, "cpu:m01", tick) == hash_normal(
                99, "cpu:m01", t, 0.5, sigma=1.0
            )

    def test_block_matches_scalar_ou(self):
        times = np.arange(0.5, 40.0, 0.5).tolist()
        for quantum, blend in ((0.5, 0.6), (20.0, 0.75)):
            block = ou_like_noise_values(
                42, "drift:m01", times, quantum, sigma=3.0, blend=blend
            )
            scalar = [ou_like_noise(42, "drift:m01", t, quantum, 3.0, blend) for t in times]
            assert block == scalar

    def test_stream_read_in_any_order_matches_scalar_ou(self):
        """One stream shared across calls, read at single samples in any order."""
        stream = NoiseStream(13, "k", 0.5, 0.6)
        for t in (0.25, 0.5, 1.0, 19.9, 20.0, 20.1, 0.75):
            assert stream.values([t], 2.0) == [ou_like_noise(13, "k", t, 0.5, 2.0, 0.6)]
        assert stream._draws  # the buffer actually filled

    def test_host_power_block_matches_scalar(self):
        from repro.cluster.host import PhysicalHost
        from repro.cluster.machines import machine_pair

        spec, _ = machine_pair("m")
        host = PhysicalHost(spec, noise_seed=123)
        host.cpu.set_demand("vm:x", 7.5)
        host.set_nic_flow("f", tx_bps=2e8, rx_bps=1e8)
        host.set_memory_activity("m", 0.2)
        host.power_model.transients.add_peak(1.0, 4.0, 12.0)
        times = np.arange(0.5, 30.0, 0.5)
        scalar = np.array([host.instantaneous_power(t) for t in times])
        fresh = PhysicalHost(spec, noise_seed=123)
        fresh.cpu.set_demand("vm:x", 7.5)
        fresh.set_nic_flow("f", tx_bps=2e8, rx_bps=1e8)
        fresh.set_memory_activity("m", 0.2)
        fresh.power_model.transients.add_peak(1.0, 4.0, 12.0)
        block = fresh.instantaneous_power_values(times.tolist())
        assert np.array_equal(scalar, block)

    def test_vm_cpu_block_matches_scalar(self):
        from repro.experiments.instances import make_instance_vm

        vm = make_instance_vm("load-cpu", name="v", noise_seed=5)
        vm.mark_running()
        times = np.arange(0.5, 20.0, 0.5)
        scalar = np.array([vm.cpu_percent(t) for t in times])
        fresh = make_instance_vm("load-cpu", name="v", noise_seed=5)
        fresh.mark_running()
        block = fresh.cpu_percent_values(times.tolist())
        assert np.array_equal(scalar, block)


class TestBatchedSampler:
    @pytest.mark.parametrize("period,phase", [(0.5, None), (1.0, 0.25), (0.3, 0.0)])
    def test_tick_grid_matches_event_mode(self, period, phase):
        grids = {}
        for batched in (False, True):
            sim = Simulator()
            ticks = []
            sampler = PeriodicSampler(
                sim, period, ticks.append, phase=phase,
                batch_callback=ticks.extend if batched else None,
            )
            sampler.start()
            # a state-changing event mid-way plus run_for boundaries
            sim.schedule(3.14159, lambda: None)
            for _ in range(4):
                sim.run_for(2.5)
            sampler.stop()
            grids[batched] = ticks
        assert grids[True] == grids[False]
        assert grids[True]  # non-empty

    def test_tick_exactly_at_until_fires(self):
        sim = Simulator()
        ticks = []
        sampler = PeriodicSampler(sim, 0.5, ticks.append, batch_callback=ticks.extend)
        sampler.start()
        sim.run_for(1.0)  # boundary lands exactly on the second tick
        assert ticks == [0.5, 1.0]

    def test_stop_deregisters_hook(self):
        sim = Simulator()
        ticks = []
        sampler = PeriodicSampler(sim, 0.5, ticks.append, batch_callback=ticks.extend)
        sampler.start()
        sim.run_for(1.0)
        sampler.stop()
        assert not sampler.running
        sim.run_for(5.0)
        assert ticks == [0.5, 1.0]

    def test_batch_callback_receives_blocks(self):
        sim = Simulator()
        blocks = []
        sampler = PeriodicSampler(
            sim, 0.5, lambda t: None,
            batch_callback=lambda ts: blocks.append(ts.copy()),
        )
        sampler.start()
        sim.run_for(5.0)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], np.arange(0.5, 5.5, 0.5))
        assert sampler.samples_taken == 10


class TestEngineInstrumentation:
    def test_pending_counter_matches_heap_scan(self):
        sim = Simulator()
        rng = np.random.default_rng(0)
        events = [sim.schedule(float(d), lambda: None) for d in rng.random(200) * 10]
        for event in events[::3]:
            event.cancel()  # direct cancel, not via sim.cancel
        for event in events[1::5]:
            sim.cancel(event)
        for _ in range(50):
            sim.step()
        expected = sum(1 for e in sim._heap if e.pending)
        assert sim.pending_events == expected

    def test_pending_counter_zero_after_drain(self):
        sim = Simulator()
        for d in (1.0, 2.0, 3.0):
            sim.schedule(d, lambda: None)
        sim.run()
        assert sim.pending_events == 0

    def test_hooks_advance_before_event_fires(self):
        sim = Simulator()
        observations = []

        class Hook:
            def advance_to(self, t1):
                observations.append(("hook", sim.now, t1))

        sim.add_interval_hook(Hook())
        sim.schedule(2.0, lambda: observations.append(("event", sim.now)))
        sim.run_for(5.0)
        assert observations == [("hook", 0.0, 2.0), ("event", 2.0), ("hook", 2.0, 5.0)]

    def test_remove_interval_hook(self):
        sim = Simulator()
        calls = []

        class Hook:
            def advance_to(self, t1):
                calls.append(t1)

        hook = Hook()
        sim.add_interval_hook(hook)
        sim.run_for(1.0)
        sim.remove_interval_hook(hook)
        sim.run_for(1.0)
        assert calls == [1.0]


class TestStabilizationTracker:
    def _signals(self):
        rng = np.random.default_rng(4)
        flat = 400.0 + np.cumsum(rng.normal(0.0, 0.2, 120))
        noisy = 400.0 + rng.normal(0.0, 30.0, 120)
        settling = np.concatenate([noisy[:40], flat[:60]])
        return [flat, noisy, settling, np.array([0.0, 0.0, 1.0, 1.001, 1.002])]

    def test_matches_is_stable_at_every_prefix(self):
        rule = StabilizationRule(n_readings=8, rel_tolerance=0.01)
        for signal in self._signals():
            tracker = StabilizationTracker(rule)
            for i, w in enumerate(signal):
                tracker.observe(float(w))
                assert tracker.stable == is_stable(signal[: i + 1], rule), i

    def test_block_updates_match_scalar(self):
        rule = StabilizationRule(n_readings=6, rel_tolerance=0.02)
        for signal in self._signals():
            scalar = StabilizationTracker(rule)
            block = StabilizationTracker(rule)
            for w in signal:
                scalar.observe(float(w))
            for start in range(0, len(signal), 7):
                block.observe_block(signal[start:start + 7])
            assert scalar.stable == block.stable
            assert scalar.streak == block.streak
            assert scalar.count == block.count

    def test_bootstrap_from_signal(self):
        rule = StabilizationRule(n_readings=10, rel_tolerance=0.01)
        for signal in self._signals():
            tracker = StabilizationTracker.from_signal(rule, signal)
            assert tracker.stable == is_stable(signal, rule)

    def test_deficit_is_a_sound_lower_bound(self):
        """Feeding fewer than ``deficit`` readings can never reach stable."""
        rule = StabilizationRule(n_readings=8, rel_tolerance=0.01)
        rng = np.random.default_rng(9)
        for signal in self._signals():
            tracker = StabilizationTracker.from_signal(rule, signal)
            deficit = tracker.deficit
            assert (deficit == 0) == tracker.stable
            if deficit > 1:
                # even perfectly flat future readings cannot satisfy the
                # rule before `deficit` arrive
                probe = StabilizationTracker.from_signal(rule, signal)
                last = signal[-1] if len(signal) else 100.0
                for _ in range(deficit - 1):
                    probe.observe(float(last))
                    assert not probe.stable


class TestLookAheadEquivalence:
    def test_skipping_matches_naive_check_loop(self):
        """The look-ahead elides only provably-false checks."""
        scenario = ARCHETYPES[0]
        fast = _runner("batched", 3)
        result_skip = fast.run_once(scenario, 0)

        naive = _runner("batched", 3)

        def naive_wait(bed, budget_s):
            spent = 0.0
            check = naive.settings.check_interval_s
            while spent < budget_s:
                if bed.source_meter.stabilised(naive.stabilization) and (
                    bed.target_meter.stabilised(naive.stabilization)
                ):
                    return
                bed.sim.run_for(check)
                spent += check

        naive._run_until_stable = naive_wait
        result_naive = naive.run_once(scenario, 0)
        assert np.array_equal(
            result_skip.source_trace.watts, result_naive.source_trace.watts
        )
        assert np.array_equal(
            result_skip.source_trace.times, result_naive.source_trace.times
        )
        assert result_skip.timeline.me == result_naive.timeline.me


class TestDirtyLogCounters:
    def test_advance_draws_exactly_one_binomial(self):
        """Each advancing step consumes the generator by exactly one
        ``binomial(clean, p)`` draw: no other variates are drawn."""
        mem = VmMemory(256)
        mem.set_dirty_process(8000.0, 0.5)
        mem.enable_logging()
        rng = np.random.default_rng(12)
        twin = np.random.default_rng(12)

        def step(dt):
            clean = mem.working_pages - mem.dirty_count()
            writes = mem.write_rate_pages_s * dt
            p = 1.0 - math.exp(writes * math.log1p(-1.0 / mem.working_pages))
            expected = int(twin.binomial(clean, p))
            assert mem.advance(dt, rng) == expected
            assert rng.bit_generator.state == twin.bit_generator.state

        # 1e-6 s keeps p so small that most draws are 0: a zero draw
        # consumes the stream like any other.
        for dt in (0.5, 1.0, 1e-6, 0.25, 2.0, 1.5):
            step(dt)
        mem.clear_dirty()
        step(1.0)
        # dt == 0 and a stopped writer draw nothing at all.
        mem.advance(0.0, rng)
        mem.stop_dirty_process()
        mem.advance(1.0, rng)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_not_logging_counts_nothing(self):
        mem = VmMemory(64)
        mem.set_dirty_process(1000.0, 0.5)
        assert mem.advance(1.0, np.random.default_rng(0)) == 0
        assert mem.dirty_count() == 0
        assert mem.clear_dirty() == 0

    def test_mid_log_working_set_resize_fails_loudly(self):
        """The counter log cannot re-attribute dirty pages to a resized
        working set; such a resize must be an error, not a silent
        miscount of the pages a pre-copy round must re-send."""
        from repro.errors import ConfigurationError

        mem = VmMemory(64)
        mem.set_dirty_process(20000.0, 0.5)
        mem.enable_logging()
        assert mem.advance(1.0, np.random.default_rng(0)) > 0
        with pytest.raises(ConfigurationError):
            mem.set_dirty_process(20000.0, 0.25)
        # same-size re-sync (suspend/resume) stays fine
        mem.set_dirty_process(0.0, 0.5)
        mem.clear_dirty()
        mem.set_dirty_process(20000.0, 0.25)  # resizing a clean log is fine


class TestTraceBulkPaths:
    def test_extend_matches_append_loop(self):
        from repro.telemetry.traces import PowerTrace

        rng = np.random.default_rng(1)
        times = np.cumsum(rng.random(300) + 0.01)
        watts = rng.normal(400.0, 20.0, 300)
        one = PowerTrace("a")
        for t, w in zip(times.tolist(), watts.tolist()):
            one.append(t, w)
        other = PowerTrace("b")
        other.extend(times[:100], watts[:100])
        other.extend(times[100:], watts[100:])
        assert np.array_equal(one.times, other.times)
        assert np.array_equal(one.watts, other.watts)

    def test_extend_rejects_non_monotonic_block(self):
        from repro.telemetry.traces import PowerTrace

        trace = PowerTrace()
        with pytest.raises(TraceError):
            trace.extend([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        trace.extend([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(TraceError):
            trace.extend([2.0, 3.0], [1.0, 2.0])  # first element not after tail
        assert len(trace) == 2  # failed extend appended nothing

    def test_series_extend_broadcasts_scalars(self):
        from repro.telemetry.traces import SeriesTrace

        trace = SeriesTrace(("a", "b"))
        trace.extend([1.0, 2.0, 3.0], a=[1.0, 2.0, 3.0], b=7.5)
        assert trace.column("b").tolist() == [7.5, 7.5, 7.5]

    def test_views_are_read_only_and_stable(self):
        from repro.telemetry.traces import PowerTrace

        trace = PowerTrace()
        trace.append(1.0, 10.0)
        view = trace.watts
        with pytest.raises(ValueError):
            view[0] = 99.0
        for i in range(200):  # force several growth reallocations
            trace.append(2.0 + i, 10.0)
        assert view.tolist() == [10.0]  # old snapshot unchanged

    def test_pickle_round_trip(self):
        import pickle

        from repro.telemetry.traces import PowerTrace, SeriesTrace

        power = PowerTrace("p")
        power.extend([0.5, 1.0], [100.0, 101.0])
        series = SeriesTrace(("x", "y"), label="s")
        series.append(1.0, x=1.0, y=2.0)
        power2 = pickle.loads(pickle.dumps(power))
        series2 = pickle.loads(pickle.dumps(series))
        assert np.array_equal(power2.watts, power.watts)
        assert np.array_equal(series2.column("y"), series.column("y"))
        power2.append(2.0, 5.0)  # still appendable after unpickling
        series2.append(2.0, x=3.0, y=4.0)
        assert len(power2) == 3 and len(series2) == 2
