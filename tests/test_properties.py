"""Cross-cutting invariants, property-based where randomisation helps.

These complement the per-module property tests with system-level
guarantees: determinism of whole simulations, conservation/additivity of
energy accounting, the pre-copy algorithm's termination envelope, and the
run-cache key derivation the distributed campaign backend relies on.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ReproError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import RunCache, RunTask
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.hypervisor.migration import MigrationConfig
from repro.io import task_spec_to_dict
from repro.models.features import HostRole
from repro.phases.timeline import MigrationPhase
from repro.simulator.engine import Simulator
from repro.telemetry.integration import integrate_power
from repro.telemetry.stabilization import StabilizationRule

_DELAYS = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestSimulatorEngineProperties:
    """Random schedule/cancel sequences can never break the event kernel."""

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(_DELAYS, st.booleans()), max_size=40))
    def test_schedule_cancel_accounting(self, ops):
        """Time-ordering, ``now`` monotonicity and event accounting hold
        for any mix of scheduled and cancelled events."""
        sim = Simulator()
        fired: list[float] = []
        events = [(sim.schedule(delay, lambda: fired.append(sim.now)), cancel)
                  for delay, cancel in ops]
        for event, cancel in events:
            if cancel:
                assert sim.cancel(event) is True
                assert sim.cancel(event) is False  # cancellation is one-shot
        kept = [event for event, cancel in events if not cancel]
        sim.run()
        assert sim.processed_events == len(kept)
        assert sim.pending_events == 0
        assert fired == sorted(fired)                      # now never goes back
        assert fired == sorted(event.time for event in kept)  # fire at their times
        assert sim.now == (max(event.time for event in kept) if kept else 0.0)

    @settings(max_examples=60, deadline=None)
    @given(delays=st.lists(_DELAYS, max_size=30), cutoff=_DELAYS)
    def test_run_for_fires_exactly_the_due_events(self, delays, cutoff):
        sim = Simulator()
        fired: list[float] = []
        for delay in delays:
            sim.schedule(delay, lambda delay=delay: fired.append(delay))
        sim.run_for(cutoff)
        assert sim.now == cutoff
        assert sorted(fired) == sorted(d for d in delays if d <= cutoff)
        assert sim.pending_events == sum(1 for d in delays if d > cutoff)
        assert sim.processed_events == len(fired)
        sim.run()  # draining the rest restores full accounting
        assert sim.processed_events == len(delays)
        assert sim.pending_events == 0

    @settings(max_examples=40, deadline=None)
    @given(delays=st.lists(_DELAYS, max_size=20))
    def test_nested_scheduling_keeps_order_and_counts(self, delays):
        """Callbacks that schedule follow-up events preserve every invariant."""
        sim = Simulator()
        fired: list[float] = []

        def parent(delay: float) -> None:
            fired.append(sim.now)
            sim.schedule(delay, lambda: fired.append(sim.now))

        for delay in delays:
            sim.schedule(delay, parent, delay)
        sim.run()
        assert fired == sorted(fired)
        assert sim.processed_events == 2 * len(delays)
        assert sim.pending_events == 0


class TestSimulationDeterminism:
    def test_identical_seeds_identical_universe(self):
        """Two runs from one seed agree to the last reading and byte."""
        scenario = MigrationScenario(
            "MEMLOAD-VM", "prop/dr35", live=True, dirty_percent=35.0
        )
        runs = [ScenarioRunner(seed=99).run_once(scenario) for _ in range(2)]
        a, b = runs
        assert np.array_equal(a.source_trace.watts, b.source_trace.watts)
        assert np.array_equal(a.target_trace.watts, b.target_trace.watts)
        assert a.timeline.bytes_total == b.timeline.bytes_total
        assert a.timeline.me == b.timeline.me

    def test_seed_changes_everything(self):
        scenario = MigrationScenario("CPULOAD-SOURCE", "prop/seed", live=True)
        a = ScenarioRunner(seed=1).run_once(scenario)
        b = ScenarioRunner(seed=2).run_once(scenario)
        assert not np.array_equal(a.source_trace.watts, b.source_trace.watts)


class TestEnergyAccounting:
    @pytest.fixture(scope="class")
    def run(self):
        return ScenarioRunner(seed=41).run_once(
            MigrationScenario("CPULOAD-SOURCE", "prop/energy", live=True, load_vm_count=3)
        )

    def test_phase_energies_partition_total(self, run):
        """E(i) + E(t) + E(a) equals the integral over [ms, me] (Eq. 4)."""
        for role in (HostRole.SOURCE, HostRole.TARGET):
            trace = run.trace_for(role)
            assert run.timeline.ms is not None and run.timeline.me is not None
            whole = integrate_power(
                trace.times, trace.watts, run.timeline.ms, run.timeline.me
            )
            parts = sum(
                run.phase_energy_j(role, phase)
                for phase in (MigrationPhase.INITIATION, MigrationPhase.TRANSFER,
                              MigrationPhase.ACTIVATION)
            )
            assert parts == pytest.approx(whole, rel=1e-9)

    def test_energy_bounded_by_power_envelope(self, run):
        """No phase energy can exceed peak power x duration."""
        for role in (HostRole.SOURCE, HostRole.TARGET):
            peak = (
                run.source_trace if role is HostRole.SOURCE else run.target_trace
            ).watts.max()
            for phase, duration in (
                (MigrationPhase.INITIATION, run.timeline.initiation_duration),
                (MigrationPhase.TRANSFER, run.timeline.transfer_duration),
                (MigrationPhase.ACTIVATION, run.timeline.activation_duration),
            ):
                energy = run.phase_energy_j(role, phase)
                assert 0 <= energy <= peak * duration * 1.01

    def test_sample_energy_matches_run_energy(self, run):
        for role in (HostRole.SOURCE, HostRole.TARGET):
            sample = run.sample_for(role)
            assert sample.energy_total_j == pytest.approx(run.total_energy_j(role))


class TestPrecopyEnvelope:
    """Xen's termination rules bound every live migration's geometry."""

    @pytest.fixture(scope="class")
    def campaign(self):
        runner = ScenarioRunner(seed=77)
        scenarios = [
            MigrationScenario("MEMLOAD-VM", f"prop/dr{p}", live=True, dirty_percent=p)
            for p in (5.0, 55.0, 95.0)
        ]
        return [runner.run_once(s) for s in scenarios]

    def test_rounds_bounded(self, campaign):
        for run in campaign:
            # max_iterations pre-copy rounds + 1 stop-and-copy.
            assert 2 <= run.timeline.n_rounds <= 30

    def test_data_bounded(self, campaign):
        for run in campaign:
            ram = run.vm_ram_mb * 1024 * 1024
            assert ram <= run.timeline.bytes_total <= 4 * ram

    def test_round_zero_moves_whole_image(self, campaign):
        for run in campaign:
            assert run.timeline.rounds[0].pages_sent == run.vm_ram_mb * 256

    def test_exactly_one_stop_and_copy(self, campaign):
        for run in campaign:
            flags = [r.stop_and_copy for r in run.timeline.rounds]
            assert flags[-1] is True
            assert sum(flags) == 1

    def test_rounds_tile_the_transfer_phase(self, campaign):
        for run in campaign:
            tl = run.timeline
            assert tl.rounds[0].start == pytest.approx(tl.ts)
            for earlier, later in zip(tl.rounds, tl.rounds[1:]):
                assert later.start == pytest.approx(earlier.end, abs=1e-6)
            assert tl.rounds[-1].end == pytest.approx(tl.te, abs=1e-6)


class TestErrorHierarchy:
    def test_all_library_errors_catchable(self):
        from repro import errors

        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, ReproError) or cls is ReproError

    def test_configuration_error_is_value_error(self):
        from repro.errors import ConfigurationError

        assert issubclass(ConfigurationError, ValueError)

    def test_version_exposed(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


# Strictly positive float bounds keep -0.0 (== 0.0 but with a different
# canonical JSON repr) out of the injectivity comparisons below.
_SETTINGS_DRAWS = st.builds(
    RunnerSettings,
    min_runs=st.integers(min_value=2, max_value=12),
    max_runs=st.integers(min_value=12, max_value=20),
    variance_delta=st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
    check_interval_s=st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
)
_MIGRATION_CONFIG_DRAWS = st.builds(
    MigrationConfig,
    max_iterations=st.integers(min_value=1, max_value=40),
    dirty_threshold_pages=st.integers(min_value=0, max_value=500),
    max_transfer_factor=st.floats(min_value=1.0, max_value=6.0, allow_nan=False),
    round_overhead_s=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    daemon_threads_source=st.floats(min_value=0.01, max_value=4.0, allow_nan=False),
    resume_point=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
_SCENARIO_DRAWS = st.one_of(
    st.builds(
        MigrationScenario,
        experiment=st.sampled_from(["CPULOAD-SOURCE", "CPULOAD-TARGET"]),
        label=st.text(alphabet="abcdef0123456789/-", min_size=1, max_size=24),
        live=st.booleans(),
        load_vm_count=st.integers(min_value=0, max_value=8),
        load_on=st.sampled_from(["source", "target"]),
        family=st.sampled_from(["m", "o"]),
    ),
    st.builds(
        MigrationScenario,
        experiment=st.just("MEMLOAD-VM"),
        label=st.text(alphabet="abcdef0123456789/-", min_size=1, max_size=24),
        live=st.just(True),  # MEMLOAD scenarios are live-only
        dirty_percent=st.floats(min_value=1.0, max_value=95.0, allow_nan=False),
        family=st.sampled_from(["m", "o"]),
    ),
)


class TestRunCacheKeyProperties:
    """The distributed backend shares runs between machines purely by
    cache key, so the key derivation must be deterministic, collision-free
    across differing protocols, and identical across process boundaries."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        scenario=_SCENARIO_DRAWS,
        runner_settings=_SETTINGS_DRAWS,
        config=st.none() | _MIGRATION_CONFIG_DRAWS,
    )
    def test_key_is_stable_and_wellformed(self, seed, scenario, runner_settings, config):
        rule = StabilizationRule()
        first = RunCache.scenario_key(seed, scenario, runner_settings, config, rule)
        again = RunCache.scenario_key(seed, scenario, runner_settings, config, rule)
        assert first == again
        assert len(first) == 64 and set(first) <= set("0123456789abcdef")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        scenario=_SCENARIO_DRAWS,
        a=_MIGRATION_CONFIG_DRAWS,
        b=_MIGRATION_CONFIG_DRAWS,
    )
    def test_injective_over_migration_config(self, seed, scenario, a, b):
        """Two protocol overrides share a key iff they are equal — a stale
        ablation run can never satisfy a different configuration."""
        rule = StabilizationRule()
        base = RunnerSettings()
        key_a = RunCache.scenario_key(seed, scenario, base, a, rule)
        key_b = RunCache.scenario_key(seed, scenario, base, b, rule)
        assert (key_a == key_b) == (a == b)

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=_SCENARIO_DRAWS,
        a=_SETTINGS_DRAWS,
        b=_SETTINGS_DRAWS,
    )
    def test_injective_over_runner_settings(self, scenario, a, b):
        rule = StabilizationRule()
        key_a = RunCache.scenario_key(0, scenario, a, None, rule)
        key_b = RunCache.scenario_key(0, scenario, b, None, rule)
        assert (key_a == key_b) == (a == b)

    def test_key_stable_across_process_boundaries(self):
        """A worker on another machine must derive the same key from a
        round-tripped task spec that the coordinator hashed locally."""
        rule = StabilizationRule()
        combos = [
            (0, MigrationScenario("CPULOAD-SOURCE", "xproc/a", live=True),
             RunnerSettings(), None),
            (7, MigrationScenario("CPULOAD-SOURCE", "xproc/b", live=False,
                                  load_vm_count=3), RunnerSettings(min_runs=4), None),
            (20150901, MigrationScenario("MEMLOAD-VM", "xproc/c", live=True,
                                         dirty_percent=55.0),
             RunnerSettings(check_interval_s=2.0),
             MigrationConfig(max_iterations=10)),
        ]
        tasks = [
            RunTask(seed=seed, settings=cfg, migration_config=mig,
                    stabilization=rule, scenario=scn, run_index=0,
                    key=RunCache.scenario_key(seed, scn, cfg, mig, rule))
            for seed, scn, cfg, mig in combos
        ]
        script = (
            "import json, sys\n"
            "from repro.experiments.executor import RunCache\n"
            "from repro.io import task_spec_from_dict\n"
            "keys = []\n"
            "for payload in json.load(sys.stdin):\n"
            "    t = task_spec_from_dict(payload)\n"
            "    keys.append(RunCache.scenario_key(t.seed, t.scenario, t.settings,\n"
            "                                      t.migration_config, t.stabilization))\n"
            "print(json.dumps(keys))\n"
        )
        env = dict(os.environ)
        src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps([task_spec_to_dict(t) for t in tasks]),
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(proc.stdout) == [t.key for t in tasks]


class TestRunBatchProperties:
    """Invariants of ``run_batch``'s per-run interior.

    ``run_batch`` may receive any hole pattern a partially-warmed cache
    leaves behind; it must run exactly those indices, in order — and an
    extra heap event at an arbitrary tick, which splits the batched
    sampling intervals differently, must not change a sample.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        holes=st.lists(
            st.integers(min_value=0, max_value=200), min_size=2, max_size=40,
            unique=True,
        ),
    )
    def test_batch_covers_exactly_the_holes_in_order(self, holes):
        """No index lost, duplicated or reordered: results and ``on_run``
        deposits come back in ``indices`` order."""
        executed = []
        fired = []

        class _FakeRun:
            def __init__(self, index):
                self.run_index = index

        class _Runner(ScenarioRunner):
            def run_once(self, scenario, run_index=0):
                executed.append(run_index)
                return _FakeRun(run_index)

        results = _Runner(seed=0).run_batch(
            MigrationScenario("CPULOAD-SOURCE", "prop/batch", live=True),
            holes, on_run=lambda run: fired.append(run.run_index),
        )
        assert executed == holes
        assert [r.run_index for r in results] == holes
        assert fired == holes

    @settings(max_examples=6, deadline=None)
    @given(
        victim=st.integers(min_value=0, max_value=2),
        event_time=st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
    )
    def test_extra_event_at_any_tick_reproduces_run_once(self, victim, event_time):
        """An extra no-op heap event at an arbitrary tick splits one run's
        event-free intervals elsewhere; its samples must still match the
        undisturbed ``run_once``."""
        from repro.experiments.runner import ScenarioRunner as Runner

        scenario = MigrationScenario(
            "CPULOAD-SOURCE", "prop/dropout", live=False, load_vm_count=0
        )
        fast = dict(
            min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
            check_interval_s=1.0,
        )
        disturbed_runner = Runner(seed=5, settings=RunnerSettings(**fast))
        build = Runner.build_testbed

        def build_with_event(self, scn, run_index):
            bed = build(self, scn, run_index)
            if run_index == victim:
                bed.sim.schedule(event_time, lambda: None)
            return bed

        disturbed_runner.build_testbed = build_with_event.__get__(disturbed_runner)
        disturbed = disturbed_runner.run_batch(scenario, range(3))
        reference = Runner(seed=5, settings=RunnerSettings(**fast)).run_batch(
            scenario, range(3)
        )
        for a, b in zip(reference, disturbed):
            assert np.array_equal(a.source_trace.times, b.source_trace.times)
            assert np.array_equal(a.source_trace.watts, b.source_trace.watts)
            assert np.array_equal(a.target_trace.watts, b.target_trace.watts)
            assert np.array_equal(a.features.times, b.features.times)
            for column in a.features.columns:
                assert np.array_equal(
                    a.features.column(column), b.features.column(column)
                )

    @settings(max_examples=60, deadline=None)
    @given(
        master=st.integers(min_value=0, max_value=2**31),
        label=st.text(alphabet="abcdef0123456789/-", min_size=1, max_size=24),
        indices=st.lists(
            st.integers(min_value=0, max_value=500), min_size=2, max_size=30,
            unique=True,
        ),
    )
    def test_derived_seeds_independent_of_batch_shape(self, master, label, indices):
        """``derive_seed(master, "label#index")`` is a pure per-index
        function: the same seed whatever order or grouping a batch
        evaluates it in, and collision-free across the span."""
        from repro.simulator.rng import derive_seed

        in_order = [derive_seed(master, f"{label}#{i}") for i in indices]
        reordered = {
            i: derive_seed(master, f"{label}#{i}") for i in reversed(indices)
        }
        assert [reordered[i] for i in indices] == in_order
        assert len(set(in_order)) == len(indices)


@settings(max_examples=20, deadline=None)
@given(
    dirty_pct=st.floats(min_value=1.0, max_value=95.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dirtier_guests_never_shrink_moved_data(dirty_pct, seed):
    """Monotone coupling: DR up ⇒ moved data not (meaningfully) down.

    Compares each sampled dirty percentage against a fixed low-DR anchor
    with the same seed; the pre-copy algorithm must move at least as much
    data for the dirtier guest (small jitter tolerance).
    """
    runner = ScenarioRunner(seed=seed)
    low = runner.run_once(
        MigrationScenario("MEMLOAD-VM", "prop/anchor", live=True, dirty_percent=1.0)
    )
    high = runner.run_once(
        MigrationScenario("MEMLOAD-VM", "prop/sweep", live=True, dirty_percent=dirty_pct)
    )
    assert high.timeline.bytes_total >= 0.95 * low.timeline.bytes_total
