"""Fixed-rate periodic sampling processes.

The paper's instruments are periodic samplers: the Voltech PM1000+ reads
wall power at 2 Hz, and ``dstat`` reads CPU/memory/network once per second.
:class:`PeriodicSampler` implements that pattern as the pure-*observer*
specialisation of the shared :class:`~repro.simulator.control.ControlLoop`
cadence, in one of two modes:

* **event mode** (default) — the sampler re-schedules a heap event every
  ``period`` seconds and invokes a user callback with the current
  simulated time; one event dispatch per sample.
* **batched mode** — the sampler registers as an *interval hook* on the
  simulator (:meth:`repro.simulator.engine.Simulator.add_interval_hook`)
  and, whenever the clock advances across an event-free interval,
  computes **all** of its tick timestamps in that interval analytically
  and delivers them in one vectorized block.  Because simulation state is
  piecewise constant between events, the block observes exactly what the
  per-tick events would have — the tick grid (and therefore every
  timestamp, bit for bit) is the same ``anchor + phase + k * period``
  float arithmetic in both modes.

Unlike a full control loop, a sampler never *acts* on what it reads, so
it never bounds an event-free interval: the engine's two-phase control
protocol (``bound_advance`` / ``fire_control``) is explicitly disabled on
this class.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.simulator.control import ControlLoop
from repro.simulator.engine import Simulator
from repro.simulator.kernels import sampler_tick_grid

__all__ = ["PeriodicSampler", "SCALAR_BLOCK_MAX"]

#: Block size below which batched instruments sample through their scalar
#: memoised pipelines: numpy's fixed per-call overhead (array RNG
#: broadcasting, reductions) only pays off on longer event-free
#: intervals.  Any threshold yields the same bits — array draws consume
#: the identical RNG stream as scalar draws — so this is purely a
#: performance knob, shared by every batched instrument.
SCALAR_BLOCK_MAX = 12


class PeriodicSampler(ControlLoop):
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
    batched:
        Select the interval-hook fast path instead of per-tick heap events.
    batch_callback:
        Called with a float64 array of tick timestamps per interval in
        batched mode.  When omitted, batched mode falls back to invoking
        ``callback`` per tick (still avoiding the event heap).
    vectorized:
        Generate long batched tick grids through the analytic array
        expression (:func:`repro.simulator.kernels.sampler_tick_grid`)
        instead of the scalar accumulation loop.  Purely a performance
        knob of the ``compute="numpy"`` mode: the grid holds the
        same float64 timestamps bit for bit.

    Notes
    -----
    The sampler schedules ticks at ``start + phase + k * period`` computed
    from the *anchor* time rather than accumulating floating-point deltas,
    so long traces do not drift.  Batched mode evaluates the identical
    expression (``(anchor + phase) + k * period`` in float64), so tick
    timestamps are bit-identical across modes.
    """

    #: Observer hooks never bound an event-free interval or take control
    #: actions; shadowing the ControlLoop protocol methods with ``None``
    #: tells the engine to skip both phases for this hook.
    bound_advance = None  # type: ignore[assignment]
    fire_control = None  # type: ignore[assignment]

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], Any],
        phase: Optional[float] = None,
        batched: bool = False,
        batch_callback: Optional[Callable[[np.ndarray], Any]] = None,
        vectorized: bool = False,
    ) -> None:
        super().__init__(sim, period, phase=phase, batched=batched, label="sampler")
        self._callback = callback
        self._batch_callback = batch_callback
        self._vectorized = vectorized

    # ------------------------------------------------------------------
    def _fire_tick(self, t: float) -> None:
        """Event-mode tick: deliver the observation timestamp."""
        self._callback(t)

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
        assert self._anchor is not None
        base = self._anchor + self._phase
        period = self._period
        k = self._tick_index
        next_time = base + k * period
        if next_time > t1:
            return  # no tick in this interval (the common case)
        if self._vectorized and t1 - next_time >= SCALAR_BLOCK_MAX * period:
            # Long interval: build the identical grid analytically (the
            # threshold only picks which bit-identical generator runs).
            grid, k_next = sampler_tick_grid(base, k, period, t1)
            if grid is not None:
                self._tick_index = k_next
                if self._batch_callback is not None:
                    self._batch_callback(grid)
                else:
                    callback = self._callback
                    for t in grid.tolist():
                        callback(t)
                return
        ticks = []
        while next_time <= t1:
            ticks.append(next_time)
            k += 1
            next_time = base + k * period
        self._tick_index = k
        if self._batch_callback is not None:
            self._batch_callback(np.asarray(ticks, dtype=np.float64))
        else:
            callback = self._callback
            for t in ticks:
                callback(t)
