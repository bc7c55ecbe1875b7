"""The discrete-event simulation engine.

The engine is a classic event-heap kernel: time advances from event to
event, state between events is piecewise constant, and every simulated
component (hosts, migration jobs, meters) mutates state from event
callbacks.  The design keeps per-event cost at O(log n) and makes the whole
simulation deterministic given the RNG seed.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.simulator.events import Event

__all__ = ["Simulator"]


class Simulator:
    """Event-driven simulation clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    2.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time):
            raise SchedulingError(f"start_time must be finite, got {start_time!r}")
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._running = False
        # Set by stop() while run() is executing; run() checks it after
        # every event and clears it on exit.
        self._stop_requested = False
        self._processed = 0
        # Live pending-event count: incremented on schedule, decremented on
        # fire and on cancel (via the event's owner back-reference), so the
        # property below is O(1) instead of an O(heap) scan.
        self._pending = 0
        # Interval hooks (batched telemetry samplers): advanced over every
        # event-free time interval before the clock crosses it.
        self._interval_hooks: list[Any] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire (cancelled ones excluded)."""
        return self._pending

    @property
    def processed_events(self) -> int:
        """Number of events fired so far."""
        return self._processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        return self.schedule_at(self._now + float(delay), callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule into the past: t={time:.6f} < now={self._now:.6f}"
                + (f" ({label})" if label else "")
            )
        event = Event(time, callback, args, label=label)
        event._owner = self
        self._pending += 1
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> bool:
        """Cancel a previously scheduled event (lazy removal)."""
        return event.cancel()

    def _event_cancelled(self) -> None:
        """Owner callback from :meth:`Event.cancel` (keeps the counter live)."""
        self._pending -= 1

    # ------------------------------------------------------------------
    # Interval hooks (the batched-telemetry fast path)
    # ------------------------------------------------------------------
    def add_interval_hook(self, hook: Any) -> None:
        """Register an interval hook (an observer).

        A hook is any object with an ``advance_to(t1: float)`` method.  The
        engine calls it every time the clock is about to move from ``now``
        to a later instant ``t1`` (the next event's time, or ``run``'s
        ``until`` bound), letting the hook process the whole event-free
        interval ``(now, t1]`` in one step.  State is piecewise constant
        between events, so a hook observing it anywhere in the interval
        sees exactly what per-tick event callbacks would have seen.  A
        hook must not schedule or cancel events.

        Hooks run in registration order, *before* the event at the
        interval's far end fires, so an observation at exactly that
        instant sees pre-event state.  (In the per-event reference path
        such exact-time collisions are ordered by scheduling history
        instead; the simulation's event times carry per-run jitter
        precisely so exact grid collisions do not occur, and the
        cross-path golden tests would surface one.)
        """
        if hook not in self._interval_hooks:
            self._interval_hooks.append(hook)

    def remove_interval_hook(self, hook: Any) -> None:
        """Deregister an interval hook; missing hooks are ignored."""
        try:
            self._interval_hooks.remove(hook)
        except ValueError:
            pass

    def _advance_hooks(self, t1: float) -> None:
        """Advance every hook across the event-free interval ``(now, t1]``."""
        for hook in list(self._interval_hooks):
            hook.advance_to(t1)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.

        Returns
        -------
        bool
            ``True`` if an event fired, ``False`` if the heap was empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        if self._interval_hooks and self._heap[0].time > self._now:
            # Let batched samplers observe the event-free interval before
            # the event at its far end mutates state.
            self._advance_hooks(self._heap[0].time)
        event = heapq.heappop(self._heap)
        if event.time < self._now:  # pragma: no cover - defensive
            raise SimulationError("heap invariant violated: event in the past")
        self._now = event.time
        self._processed += 1
        self._pending -= 1
        event.fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` passes, or the budget ends.

        A :meth:`stop` request from an event callback ends the run early.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop.  Events strictly after
            ``until`` remain pending and the clock is advanced to ``until``.
        max_events:
            Optional safety budget on the number of events fired; exceeding
            it raises :class:`~repro.errors.SimulationError` (runaway guard).
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        if until is not None and until < self._now:
            raise SchedulingError(
                f"cannot run to the past: until={until!r} < now={self._now!r}"
            )
        self._running = True
        self._stop_requested = False
        fired = 0
        try:
            while not self._stop_requested:
                self._drop_cancelled_head()
                if self._heap and (until is None or self._heap[0].time <= until):
                    if max_events is not None and fired >= max_events:
                        raise SimulationError(
                            f"event budget exhausted after {fired} events at t={self._now:.3f}"
                        )
                    if self._interval_hooks and self._heap[0].time > self._now:
                        self._advance_hooks(self._heap[0].time)
                    event = heapq.heappop(self._heap)
                    if event.time < self._now:  # pragma: no cover - defensive
                        raise SimulationError("heap invariant violated: event in the past")
                    self._now = event.time
                    self._processed += 1
                    self._pending -= 1
                    event.fire()
                    fired += 1
                    continue
                if until is not None and until > self._now:
                    if self._interval_hooks:
                        self._advance_hooks(float(until))
                    self._now = float(until)
                break
        finally:
            self._running = False
            self._stop_requested = False

    def stop(self) -> None:
        """End the executing :meth:`run` right after the current event.

        Meant for event callbacks: the run returns once the callback that
        asked for the stop has finished, with the clock at that event's
        time and every later event still pending — including events due
        at the same instant.  Outside :meth:`run` this does nothing, so a
        request never carries over into the next run, and :meth:`step`
        ignores it.
        """
        if self._running:
            self._stop_requested = True

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for a relative ``duration`` seconds of simulated time."""
        if duration < 0:
            raise SchedulingError(f"duration must be non-negative, got {duration!r}")
        self.run(until=self._now + duration, max_events=max_events)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.3f} pending={self.pending_events} "
            f"processed={self._processed}>"
        )
