"""Periodic samplers: cadence, drift-free grids, start/stop."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simulator import PeriodicSampler, Simulator


class TestPeriodicSampler:
    def test_samples_on_grid(self):
        sim, ticks = Simulator(), []
        sampler = PeriodicSampler(sim, 0.5, ticks.append)
        sampler.start()
        sim.run(until=3.0)
        assert ticks == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    def test_no_drift_over_long_runs(self):
        sim, ticks = Simulator(), []
        sampler = PeriodicSampler(sim, 0.1, ticks.append)
        sampler.start()
        sim.run(until=100.0)
        grid = np.asarray(ticks)
        expected = np.arange(1, len(grid) + 1) * 0.1
        assert np.max(np.abs(grid - expected)) < 1e-9

    def test_phase_offset(self):
        sim, ticks = Simulator(), []
        sampler = PeriodicSampler(sim, 1.0, ticks.append, phase=0.25)
        sampler.start()
        sim.run(until=3.0)
        assert ticks == pytest.approx([0.25, 1.25, 2.25])

    def test_stop_cancels(self):
        sim, ticks = Simulator(), []
        sampler = PeriodicSampler(sim, 1.0, ticks.append)
        sampler.start()
        sim.run(until=2.0)
        sampler.stop()
        sim.run(until=10.0)
        assert len(ticks) == 2
        assert not sampler.running

    def test_restart_after_stop(self):
        sim, ticks = Simulator(), []
        sampler = PeriodicSampler(sim, 1.0, ticks.append)
        sampler.start()
        sim.run(until=2.0)
        sampler.stop()
        sim.run(until=5.0)
        sampler.start()
        sim.run(until=7.0)
        assert ticks == pytest.approx([1.0, 2.0, 6.0, 7.0])

    def test_double_start_is_idempotent(self):
        sim, ticks = Simulator(), []
        sampler = PeriodicSampler(sim, 1.0, ticks.append)
        sampler.start()
        sampler.start()
        sim.run(until=2.0)
        assert len(ticks) == 2

    def test_samples_taken_counter(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, 0.5, lambda t: None)
        sampler.start()
        sim.run(until=5.0)
        assert sampler.samples_taken == 10

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            PeriodicSampler(Simulator(), 0.0, lambda t: None)

    def test_rejects_negative_phase(self):
        with pytest.raises(ConfigurationError):
            PeriodicSampler(Simulator(), 1.0, lambda t: None, phase=-0.1)

    def test_samples_taken_equal_across_modes(self):
        """Both modes consume the same ticks across events and run bounds."""
        taken = {}
        for batched in (False, True):
            sim = Simulator()
            sampler = PeriodicSampler(sim, 0.7, lambda t: None, batched=batched)
            sampler.start()
            sim.schedule(3.3, lambda: None)  # a state-free event mid-way
            for _ in range(4):
                sim.run_for(2.5)
            sampler.stop()
            taken[batched] = sampler.samples_taken
        assert taken[False] == taken[True] == 14

    def test_ticks_on_grid_while_events_schedule_events(self):
        """Event callbacks that schedule follow-up events leave the grid intact."""
        for batched in (False, True):
            sim = Simulator()
            ticks, fired = [], []

            def chain(t):
                fired.append(t)
                if t < 8.0:
                    sim.schedule(2.0, chain, t + 2.0)

            sampler = PeriodicSampler(sim, 0.5, ticks.append, batched=batched)
            sampler.start()
            sim.schedule(2.25, chain, 2.25)
            sim.run_for(10.0)
            sampler.stop()
            assert fired == [2.25, 4.25, 6.25, 8.25], batched
            assert ticks == [0.5 * k for k in range(1, 21)], batched
