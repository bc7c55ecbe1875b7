"""Fixed-rate periodic sampling processes.

The paper's instruments are periodic samplers: the Voltech PM1000+ reads
wall power at 2 Hz, and ``dstat`` reads CPU/memory/network once per second.
:class:`PeriodicSampler` implements that pattern in one of two modes:

* **event mode** (default) — the sampler re-schedules a heap event every
  ``period`` seconds and invokes a user callback with the current
  simulated time; one event dispatch per sample.
* **batched mode** (a ``batch_callback`` is given) — the sampler
  registers as an *interval hook* on the simulator
  (:meth:`repro.simulator.engine.Simulator.add_interval_hook`) and,
  whenever the clock advances across an event-free interval, computes
  **all** of its tick timestamps in that interval analytically and
  delivers them in one block.  Because simulation state is
  piecewise constant between events, the block observes exactly what the
  per-tick events would have — the tick grid (and therefore every
  timestamp, bit for bit) is the same ``anchor + phase + k * period``
  float arithmetic in both modes.

A sampler only observes: it never schedules or cancels events from a
batched block.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.simulator.engine import Simulator
from repro.simulator.events import Event

__all__ = ["PeriodicSampler"]


class PeriodicSampler:
    """Invokes ``callback(t)`` every ``period`` simulated seconds.

    Parameters
    ----------
    sim:
        The simulator driving the clock.
    period:
        Sampling interval in seconds (e.g. ``0.5`` for the 2 Hz power meter).
    callback:
        Called with the sample timestamp at each tick.
    phase:
        Offset of the first sample relative to :meth:`start` time.  Defaults
        to one full period (first sample after one interval).
    batch_callback:
        Selects batched mode: called with the list of tick timestamps
        (ascending floats) of each event-free interval instead of
        ``callback`` per tick from heap events.

    Notes
    -----
    The sampler schedules ticks at ``start + phase + k * period`` computed
    from the *anchor* time rather than accumulating floating-point deltas,
    so long traces do not drift.  Batched mode evaluates the identical
    expression (``(anchor + phase) + k * period`` in float64), so tick
    timestamps are bit-identical across modes.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], Any],
        phase: Optional[float] = None,
        batch_callback: Optional[Callable[[list[float]], Any]] = None,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"sampling period must be positive, got {period!r}")
        if phase is not None and phase < 0:
            raise ConfigurationError(f"sampling phase must be non-negative, got {phase!r}")
        self._sim = sim
        self._period = float(period)
        self._phase = self._period if phase is None else float(phase)
        self._callback = callback
        self._batch_callback = batch_callback
        self._anchor: Optional[float] = None
        self._tick_index = 0
        self._event: Optional[Event] = None
        self._active = False  # batched-mode registration flag

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the sampler currently has a tick scheduled."""
        if self._batch_callback is not None:
            return self._active
        return self._event is not None and self._event.pending

    @property
    def period(self) -> float:
        """Tick interval in seconds."""
        return self._period

    @property
    def samples_taken(self) -> int:
        """Number of ticks delivered since the last :meth:`start`."""
        return self._tick_index

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling; the first tick fires after ``phase`` seconds."""
        if self.running:
            return
        self._anchor = self._sim.now
        self._tick_index = 0
        if self._batch_callback is not None:
            self._active = True
            self._sim.add_interval_hook(self)
        else:
            self._schedule_next()

    def stop(self) -> None:
        """Stop sampling; a pending tick is dropped."""
        if self._batch_callback is not None:
            if self._active:
                self._active = False
                self._sim.remove_interval_hook(self)
            return
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    # Event mode
    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        next_time = (self._anchor + self._phase) + self._tick_index * self._period
        # Guard against a zero phase scheduling "now" repeatedly.
        if next_time < self._sim.now:
            next_time = self._sim.now
        self._event = self._sim.schedule_at(
            next_time, self._on_event_tick, label=f"sampler@{self._period}s"
        )

    def _on_event_tick(self) -> None:
        self._tick_index += 1
        self._callback(self._sim.now)
        self._schedule_next()

    # ------------------------------------------------------------------
    # Batched mode (simulator interval hook)
    # ------------------------------------------------------------------
    def advance_to(self, t1: float) -> None:
        """Generate every tick with timestamp ``<= t1`` not yet delivered.

        Called by the simulator before its clock crosses the event-free
        interval ``(now, t1]``.  Tick timestamps are computed with the
        same float64 expression the event path uses, and the ``<= t1``
        comparison mirrors the engine's ``heap[0].time > until`` stop
        rule, so both modes fire exactly the same ticks.
        """
        base = self._anchor + self._phase
        period = self._period
        k = self._tick_index
        ticks = []
        next_time = base + k * period
        while next_time <= t1:
            ticks.append(next_time)
            k += 1
            next_time = base + k * period
        if not ticks:
            return  # no tick in this interval
        self._tick_index = k
        self._batch_callback(ticks)
