"""The measurement protocol's three waits, against reference walks.

A run waits three times (Section V-B): for power to stabilise before the
migration, for the migration to finish, and for power to stabilise after
it.  A stabilisation wait is the look-ahead loop: one engine run per
check it cannot prove false.  The migration wait makes two engine runs,
the first stopped by the job's completion.  These tests pin that every
wait ends at the same clock value, with the same samples and the same
leftover state, as a reference walk (:func:`reference_stabilisation_wait`
and :func:`reference_migration_wait`), and that no meter reading is
computed that the meters do not record.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario, all_scenarios
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.simulator.engine import Simulator
from repro.simulator.kernels import HostKernel
from repro.telemetry.stabilization import StabilizationRule

LIVE = MigrationScenario("CPULOAD-SOURCE", "waits/lv/1vm", live=True, load_vm_count=1)
NON_LIVE = MigrationScenario("CPULOAD-SOURCE", "waits/nl/0vm", live=False, load_vm_count=0)
MEMLOAD = MigrationScenario("MEMLOAD-VM", "waits/lv/dr55", live=True, dirty_percent=55.0)


def reference_stabilisation_wait(runner):
    """The stabilisation wait as one engine run per check it makes.

    The look-ahead loop (its step choices fix the clock's float value),
    asking the meters afresh at every check.
    """
    def wait(bed, budget_s):
        spent = 0.0
        check = runner.settings.check_interval_s
        rule = runner.stabilization
        meters = (bed.source_meter, bed.target_meter)
        period = min(meter.period_s for meter in meters)
        while spent < budget_s:
            if all(meter.stabilised(rule) for meter in meters):
                return
            deficit = max(meter.tracker(rule).deficit for meter in meters)
            max_steps = max(1, math.ceil((budget_s - spent) / check))
            steps = 1
            while steps < max_steps and math.floor(steps * check / period) + 1 < deficit:
                steps += 1
            bed.sim.run_for(check * steps)
            spent += check * steps
    return wait


def reference_migration_wait(runner):
    """The migration wait as a poll of ``job.finished`` on the check grid."""
    def wait(bed, job):
        deadline = bed.sim.now + runner.settings.migration_timeout_s
        while not job.finished and bed.sim.now < deadline:
            bed.sim.run_for(runner.settings.check_interval_s)
    return wait


class ReferenceRunner(ScenarioRunner):
    """A runner whose waits walk the check grid one engine run at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._run_until_stable = reference_stabilisation_wait(self)
        self._run_until_finished = reference_migration_wait(self)


def _state(bed):
    """Everything a later read of the testbed could see, copied."""
    return {
        "now": bed.sim.now,
        "traces": [
            (meter.trace.times.copy(), meter.trace.watts.copy())
            for meter in (bed.source_meter, bed.target_meter)
        ],
        "rng": [
            meter._rng.bit_generator.state for meter in (bed.source_meter, bed.target_meter)
        ],
        "transients": [
            tuple(host.power_model.transients._items) for host in (bed.source, bed.target)
        ],
    }


def _assert_same_state(a, b):
    assert a["now"] == b["now"]
    for (ta, wa), (tb, wb) in zip(a["traces"], b["traces"]):
        assert np.array_equal(ta, tb)
        assert np.array_equal(wa, wb)
    assert a["rng"] == b["rng"]
    assert a["transients"] == b["transients"]


def _assert_same_run(a, b):
    for trace in ("source_trace", "target_trace"):
        assert np.array_equal(getattr(a, trace).times, getattr(b, trace).times)
        assert np.array_equal(getattr(a, trace).watts, getattr(b, trace).watts)
    assert np.array_equal(a.features.times, b.features.times)
    for column in a.features.columns:
        assert np.array_equal(a.features.column(column), b.features.column(column))
    assert a.timeline.ms == b.timeline.ms
    assert a.timeline.me == b.timeline.me


def _drive(runner, scenario, first_wait, before_wait=None):
    """Run the protocol with ``first_wait`` as the pre-migration wait.

    Returns the testbed state right after that wait, the wait's start
    time and the finished run.
    """
    bed = runner.build_testbed(scenario, 0)
    protocol = runner._run_protocol(bed, scenario, 0)
    after_wait = start = None
    try:
        step = next(protocol)
        while True:
            if not isinstance(step, tuple):
                bed.sim.run_for(step)
            elif step[0] == "migration":
                runner._run_until_finished(bed, step[1])
            elif after_wait is None:
                if before_wait is not None:
                    before_wait(bed)
                start = bed.sim.now
                first_wait(bed, step[1])
                after_wait = _state(bed)
            else:
                runner._run_until_stable(bed, step[1])
            step = next(protocol)
    except StopIteration as stop:
        return after_wait, start, stop.value


class TestStabilisationWait:
    def test_budget_exhausted_wait_matches_reference(self):
        """A rule that cannot hold: the wait runs out its budget.

        One 0.1 W quantisation step is more than 1e-4 of any power below
        1 kW, so every reading that differs from its predecessor breaks
        the streak, and twenty equal readings in a row never occur under
        the meter's noise.
        """
        runner = ScenarioRunner(
            seed=7, stabilization=StabilizationRule(n_readings=20, rel_tolerance=1e-4)
        )
        ref, start, ref_run = _drive(runner, LIVE, reference_stabilisation_wait(runner))
        assert ref["now"] - start == runner.settings.max_warmup_s
        got, _, run = _drive(runner, LIVE, runner._run_until_stable)
        _assert_same_state(ref, got)
        _assert_same_run(ref_run, run)

    def test_early_stabilisation_then_state_change_matches_reference(self):
        """A wait ending early leaves nothing of the window it did not reach.

        The rule holds a few checks into a 90 s budget; a transient that
        expires inside the rest of that window is still active when the
        migration starts.  Pruning that transient or advancing the meters'
        generators past the last check would each change the state after
        the wait or the samples after it.
        """
        runner = ScenarioRunner(
            seed=3,
            settings=RunnerSettings(min_warmup_s=0.5),
            stabilization=StabilizationRule(n_readings=20, rel_tolerance=0.1),
        )

        def add_transient(bed):
            bed.source.power_model.transients.add_peak(
                bed.sim.now, 15.0, 1.0, shape="rect"
            )

        ref, start, ref_run = _drive(
            runner, LIVE, reference_stabilisation_wait(runner), add_transient
        )
        # stable a few checks in; the transient outlives the wait but
        # expires well inside the 90 s window
        assert start < ref["now"] < start + 15.0 < start + runner.settings.max_warmup_s
        assert len(ref["transients"][0]) == 1
        got, _, run = _drive(runner, LIVE, runner._run_until_stable, add_transient)
        _assert_same_state(ref, got)
        _assert_same_run(ref_run, run)

    def test_pending_event_falls_back_to_a_run_per_check(self):
        """An event inside the window: the same samples, run check by check."""
        runner = ScenarioRunner(seed=3)

        def schedule_event(bed):
            bed.sim.schedule(40.0, lambda: None)

        ref, _, ref_run = _drive(
            runner, LIVE, reference_stabilisation_wait(runner), schedule_event
        )
        got, _, run = _drive(runner, LIVE, runner._run_until_stable, schedule_event)
        _assert_same_state(ref, got)
        _assert_same_run(ref_run, run)

    def test_rounding_past_the_budget_adds_a_check(self):
        """Three 0.3 s checks sum to 0.8999… < 0.9: a fourth check follows."""
        runner = ScenarioRunner(
            seed=3,
            settings=RunnerSettings(
                min_warmup_s=0.3, max_warmup_s=0.9, check_interval_s=0.3
            ),
        )
        ref, start, ref_run = _drive(runner, LIVE, reference_stabilisation_wait(runner))
        assert ref["now"] - start > runner.settings.max_warmup_s
        got, _, run = _drive(runner, LIVE, runner._run_until_stable)
        _assert_same_state(ref, got)
        _assert_same_run(ref_run, run)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_readings=st.integers(2, 40),
        rel_tolerance=st.floats(1e-4, 0.02),
        min_warmup_s=st.sampled_from([0.5, 3.0, 12.0]),
        max_warmup_s=st.floats(1.0, 90.0),
        check_interval_s=st.sampled_from([0.3, 1.0, 2.5]),
    )
    @example(seed=3, n_readings=20, rel_tolerance=0.1, min_warmup_s=0.5,
             max_warmup_s=90.0, check_interval_s=2.5)  # ends at once
    @example(seed=10, n_readings=20, rel_tolerance=0.003, min_warmup_s=12.0,
             max_warmup_s=90.0, check_interval_s=2.5)  # ends by the rule after look-ahead steps
    @example(seed=7, n_readings=20, rel_tolerance=1e-4, min_warmup_s=12.0,
             max_warmup_s=90.0, check_interval_s=2.5)  # runs out its budget
    def test_chunked_wait_matches_reference(
        self, seed, n_readings, rel_tolerance, min_warmup_s, max_warmup_s, check_interval_s
    ):
        """Any rule, budget and seed: the same state and run as the reference."""
        runner = ScenarioRunner(
            seed=seed,
            settings=RunnerSettings(
                min_warmup_s=min_warmup_s, max_warmup_s=max_warmup_s,
                check_interval_s=check_interval_s,
            ),
            stabilization=StabilizationRule(n_readings, rel_tolerance),
        )
        ref, _, ref_run = _drive(runner, LIVE, reference_stabilisation_wait(runner))
        got, _, run = _drive(runner, LIVE, runner._run_until_stable)
        _assert_same_state(ref, got)
        _assert_same_run(ref_run, run)


class TestMigrationWait:
    @pytest.mark.parametrize("scenario", [LIVE, NON_LIVE, MEMLOAD], ids=lambda s: s.label)
    def test_run_matches_per_check_reference(self, scenario):
        a = ReferenceRunner(seed=11).run_once(scenario, 0)
        b = ScenarioRunner(seed=11).run_once(scenario, 0)
        _assert_same_run(a, b)

    def test_timeout_still_raises(self):
        runner = ScenarioRunner(seed=1, settings=RunnerSettings(migration_timeout_s=3.0))
        with pytest.raises(ExperimentError, match=r"migration did not finish within 3\.0s"):
            runner.run_once(LIVE, 0)

    def test_timeout_ends_on_the_first_grid_instant_past_the_deadline(self):
        runner = ScenarioRunner(seed=1, settings=RunnerSettings(migration_timeout_s=3.0))
        bed = runner.build_testbed(LIVE, 0)
        protocol = runner._run_protocol(bed, LIVE, 0)
        step = next(protocol)
        while not (isinstance(step, tuple) and step[0] == "migration"):
            if isinstance(step, tuple):
                runner._run_until_stable(bed, step[1])
            else:
                bed.sim.run_for(step)
            step = next(protocol)
        start = bed.sim.now
        runner._run_until_finished(bed, step[1])
        assert not step[1].finished
        assert bed.sim.now == start + 2.5 + 2.5


class TestEngineCalls:
    def test_migration_wait_makes_two_engine_runs(self, monkeypatch):
        """One run stopped by the job's completion, one to the grid instant."""
        calls = []
        run = Simulator.run

        def counting_run(self, *args, **kwargs):
            calls.append(args or kwargs)
            return run(self, *args, **kwargs)

        runner = ScenarioRunner(seed=7)
        per_wait = []
        run_until_finished = runner._run_until_finished

        def wait(bed, job):
            calls.clear()
            monkeypatch.setattr(Simulator, "run", counting_run)
            run_until_finished(bed, job)
            monkeypatch.undo()
            per_wait.append(len(calls))

        runner._run_until_finished = wait
        for scenario in all_scenarios("m")[:2]:
            runner.run_once(scenario, 0)
        assert per_wait == [2, 2]

    def test_every_computed_reading_is_recorded(self, monkeypatch):
        """The meters' ground-truth reads are exactly the samples they keep.

        A paper run's testbed runs only the two meters, so every tick
        :meth:`HostKernel.power_block` computes is a meter sample; a
        reading computed past the last check and then discarded would
        make the count larger.
        """
        ticks = []
        power_block = HostKernel.power_block

        def counting_power_block(self, times):
            ticks.append(len(times))
            return power_block(self, times)

        monkeypatch.setattr(HostKernel, "power_block", counting_power_block)
        run = ScenarioRunner(seed=7).run_once(all_scenarios("m")[0], 0)
        assert sum(ticks) == len(run.source_trace) + len(run.target_trace)

    def test_testbed_runs_only_the_meters(self):
        runner = ScenarioRunner(seed=7)
        bed = runner.build_testbed(LIVE, 0)
        bed.start_instrumentation()
        assert bed.sim._interval_hooks == [
            bed.source_meter._sampler, bed.target_meter._sampler
        ]
        assert not hasattr(bed, "source_dstat") and not hasattr(bed, "target_dstat")
