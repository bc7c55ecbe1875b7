"""Discrete-event engine: ordering, cancellation, budgets, clocks."""

import numpy as np
import pytest

from repro.errors import SchedulingError, SimulationError
from repro.simulator import Simulator


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_rejects_nonfinite_start(self):
        with pytest.raises(SchedulingError):
            Simulator(start_time=float("nan"))

    def test_rejects_past_event(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingError):
            sim.schedule_at(5.0, lambda: None)

    def test_rejects_nonfinite_event(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda: None)

    def test_relative_schedule(self):
        sim = Simulator(start_time=3.0)
        event = sim.schedule(2.0, lambda: None)
        assert event.time == 5.0


class TestExecutionOrder:
    def test_time_order(self):
        sim, out = Simulator(), []
        sim.schedule(3.0, out.append, "c")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, out.append, "b")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sim, out = Simulator(), []
        for tag in "abc":
            sim.schedule(1.0, out.append, tag)
        sim.run()
        assert out == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        sim, seen = Simulator(), []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5, 4.0]

    def test_callback_can_schedule_more(self):
        sim, out = Simulator(), []

        def chain(n):
            out.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert out == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestRunUntil:
    def test_run_until_leaves_future_events(self):
        sim, out = Simulator(), []
        sim.schedule(1.0, out.append, "early")
        sim.schedule(10.0, out.append, "late")
        sim.run(until=5.0)
        assert out == ["early"]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_then_continue(self):
        sim, out = Simulator(), []
        sim.schedule(10.0, out.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert out == ["late"]

    def test_run_for(self):
        sim = Simulator(start_time=2.0)
        sim.run_for(3.0)
        assert sim.now == 5.0

    def test_run_for_negative_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().run_for(-1.0)

    def test_run_to_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingError):
            sim.run(until=5.0)

    def test_empty_run_advances_to_until(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim, out = Simulator(), []
        event = sim.schedule(1.0, out.append, "x")
        assert sim.cancel(event)
        sim.run()
        assert out == []

    def test_double_cancel_returns_false(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        assert event.cancel()
        assert not event.cancel()

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1


class TestGuards:
    def test_event_budget(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_on_empty_heap(self):
        assert Simulator().step() is False

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.processed_events == 5


class _Recorder:
    """Observer hook remembering every interval end it is advanced to."""

    def __init__(self):
        self.reached = []

    def advance_to(self, t1):
        self.reached.append(t1)


class TestStop:
    def test_stop_ends_run_after_the_calling_event(self):
        sim, out = Simulator(), []
        hook = _Recorder()
        sim.add_interval_hook(hook)

        def stopping(tag):
            out.append(tag)
            sim.stop()

        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, stopping, "b")
        sim.schedule(2.0, out.append, "c")  # same instant, still pending
        sim.schedule(3.0, out.append, "d")
        sim.run(until=10.0)
        assert out == ["a", "b"]
        assert sim.now == 2.0
        assert hook.reached == [1.0, 2.0]
        assert sim.pending_events == 2
        sim.run(until=10.0)
        assert out == ["a", "b", "c", "d"]
        assert sim.now == 10.0

    def test_resumed_run_samples_like_one_uninterrupted_run(self):
        from repro.experiments.testbed import Testbed

        traces = []
        for stop in (True, False):
            bed = Testbed(seed=5)
            bed.start_instrumentation()
            bed.sim.schedule(7.3, bed.sim.stop if stop else (lambda: None))
            bed.sim.run(until=20.0)
            assert bed.sim.now == (7.3 if stop else 20.0)
            bed.sim.run(until=20.0)
            traces.append(bed.source_meter.trace)
        assert len(traces[0]) == 40
        assert np.array_equal(traces[0].times, traces[1].times)
        assert np.array_equal(traces[0].watts, traces[1].watts)

    def test_request_does_not_leak_into_the_next_run(self):
        sim, out = Simulator(), []
        sim.stop()  # outside run(): ignored
        sim.schedule(1.0, out.append, 1)
        sim.schedule(2.0, out.append, 2)
        sim.run(until=1.5)
        assert out == [1]

        def last_event():
            out.append("last")
            sim.stop()  # the run ends here anyway

        sim.schedule(0.5, last_event)  # t=2.0, after the event at 2.0
        sim.run(until=2.0)
        sim.schedule(1.0, out.append, 3)
        sim.schedule(2.0, out.append, 4)
        sim.run()
        assert out == [1, 2, "last", 3, 4]
        assert sim.now == 4.0

    def test_step_ignores_stop(self):
        sim, out = Simulator(), []

        def stopping():
            out.append("stop")
            sim.stop()

        sim.schedule(1.0, stopping)
        sim.schedule(2.0, out.append, "after")
        sim.schedule(3.0, out.append, "end")
        assert sim.step() is True
        sim.run()
        assert out == ["stop", "after", "end"]
