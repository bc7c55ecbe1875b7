"""The simulated Voltech PM1000+ power analyser.

Section V-B: two PM1000+ units are attached to the AC side of the source
and target hosts, sampling instantaneous power at 2 Hz; device accuracy is
0.3 %, and readings land on a 0.1 W quantisation grid (typical of the
instrument's display resolution at these ranges).

The meter samples the host's *ground-truth* power (which already includes
utilisation jitter and transients) and adds measurement noise — keeping
physical variation and instrument error separate, so tests can switch
either off independently.

Two sampling modes share one semantics (``batched=`` selects):

* **event mode** — one heap event, one scalar RNG draw and one trace
  append per sample;
* **batched mode** — the meter rides the simulator's interval hooks: for
  every event-free interval it reads the host's ground truth in one
  block (:meth:`~repro.cluster.host.PhysicalHost.instantaneous_power_values`),
  draws all measurement noise in one ``Generator.standard_normal`` call
  (numpy consumes the *same stream in the same order* as per-sample
  scalar draws), and bulk-appends to the trace.

Both modes produce bit-identical traces; the batched mode additionally
feeds incremental stabilisation trackers so :meth:`PowerMeter.stabilised`
is O(1) per check (event mode gets the same trackers).

A batched meter can also read ahead (:meth:`PowerMeter.read_ahead`): the
runner's stabilisation wait asks for a whole quiet window's readings,
replays its checks on them, and then advances the clock once, with the
meter serving that block from the buffer.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.host import PhysicalHost
from repro.errors import ConfigurationError
from repro.simulator.engine import Simulator
from repro.simulator.sampling import PeriodicSampler
from repro.telemetry.stabilization import StabilizationRule, StabilizationTracker
from repro.telemetry.traces import PowerTrace

__all__ = ["PowerMeter"]


class PowerMeter:
    """A 2 Hz AC-side power meter attached to one host.

    Parameters
    ----------
    sim:
        The driving simulator.
    host:
        The measured machine.
    rng:
        Measurement-noise generator (one independent stream per meter).
    period_s:
        Sampling interval; the PM1000+ is operated at 2 Hz (0.5 s).
    accuracy:
        Relative 1-sigma measurement error (0.3 % per the paper; the
        noise sigma uses a third of it so ~99.7 % of readings fall within
        the quoted accuracy band).
    quantisation_w:
        Reading resolution in watts (0 disables quantisation).
    batched:
        Select the interval-hook fast path (bit-identical to event mode;
        see the module docstring).
    """

    def __init__(
        self,
        sim: Simulator,
        host: PhysicalHost,
        rng: np.random.Generator,
        period_s: float = 0.5,
        accuracy: float = 0.003,
        quantisation_w: float = 0.1,
        batched: bool = False,
    ) -> None:
        if accuracy < 0:
            raise ConfigurationError(f"accuracy must be non-negative, got {accuracy!r}")
        if quantisation_w < 0:
            raise ConfigurationError(
                f"quantisation_w must be non-negative, got {quantisation_w!r}"
            )
        self.host = host
        self._rng = rng
        self._accuracy = float(accuracy)
        self._quantisation = float(quantisation_w)
        self.trace = PowerTrace(label=f"power:{host.name}")
        self._trackers: dict[StabilizationRule, StabilizationTracker] = {}
        # Read-ahead buffer (see read_ahead): tick times, readings, the
        # host's jittered CPU reads, and how many ticks were delivered.
        self._ahead: tuple[list[float], list[float], list[float]] | None = None
        self._ahead_pos = 0
        self._sampler = PeriodicSampler(
            sim,
            period_s,
            self._sample,
            batched=batched,
            batch_callback=self._sample_block if batched else None,
        )

    # ------------------------------------------------------------------
    @property
    def period_s(self) -> float:
        """Sampling interval in seconds."""
        return self._sampler.period

    @property
    def running(self) -> bool:
        """Whether the meter is currently sampling."""
        return self._sampler.running

    def start(self) -> None:
        """Begin sampling into :attr:`trace`."""
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling (the trace is retained)."""
        self._sampler.stop()

    def reset(self) -> None:
        """Discard the recorded trace (meter keeps running if started)."""
        self.trace = PowerTrace(label=f"power:{self.host.name}")
        self._trackers.clear()

    # ------------------------------------------------------------------
    def _sample(self, t: float) -> None:
        true_power = self.host.instantaneous_power(t)
        noise_sigma = self._accuracy / 3.0 * true_power
        reading = true_power + float(self._rng.normal(0.0, noise_sigma)) if noise_sigma else true_power
        if self._quantisation > 0:
            reading = round(reading / self._quantisation) * self._quantisation
        reading = max(reading, 0.0)
        self.trace.append(t, reading)
        for tracker in self._trackers.values():
            tracker.observe(reading)

    def _readings(self, true_power: list[float]) -> list[float]:
        """Noisy, quantised readings of a block of ground truth.

        Mirrors :meth:`_sample` per element.  The draws come from one
        ``standard_normal`` block scaled per sample:
        ``Generator.normal(0, s)`` is exactly ``0.0 + s * z`` with ``z``
        the next standard draw, so the scaled block consumes the same
        stream and yields the same readings bit for bit (``0.0 + x``
        cannot change a reading added to a positive power).  A zero sigma
        takes no draw in :meth:`_sample`; ground truth is floored above
        zero, so that only happens with ``accuracy=0``, where no sample
        draws.
        """
        acc3 = self._accuracy / 3.0
        quantisation = self._quantisation
        n = len(true_power)
        draws = self._rng.standard_normal(n).tolist() if acc3 else [0.0] * n
        readings = []
        for tp, z in zip(true_power, draws):
            reading = tp + acc3 * tp * z
            if quantisation > 0:
                reading = round(reading / quantisation) * quantisation
            readings.append(max(reading, 0.0))
        return readings

    def _sample_block(self, times: list[float]) -> None:
        """One event-free interval's worth of readings, batched.

        A block inside the read-ahead buffer is served from it: the
        buffered readings, the host's deferred read effects, and the same
        noise draws again, so the generator moves exactly as computing
        the block would move it.
        """
        n = len(times)
        ahead = self._ahead
        pos = self._ahead_pos
        if ahead is not None and pos + n <= len(ahead[0]) and ahead[0][pos] == times[0]:
            end = pos + n
            readings = ahead[1][pos:end]
            self.host.kernel.deliver_ahead(times, ahead[2][pos:end])
            if self._accuracy / 3.0:  # the draw condition of _readings
                self._rng.standard_normal(n)
            self._ahead_pos = end
        else:
            readings = self._readings(self.host.instantaneous_power_values(times))
        buf_t, buf_w, start = self.trace._reserve(n, times[0])
        buf_t[start:start + n] = times
        buf_w[start:start + n] = readings
        self.trace._commit(n)
        for tracker in self._trackers.values():
            tracker.observe_block(readings)

    # ------------------------------------------------------------------
    def read_ahead(self, until: float) -> tuple[list[float], list[float]]:
        """The readings this meter will take over ``(now, until]``.

        Valid only if nothing changes simulation state before ``until``
        (no pending event), and only for a batched, running meter.
        Computing them leaves no trace a later read could
        see: the generator is rewound and the host's read effects are
        deferred (:meth:`HostKernel.power_ahead
        <repro.simulator.kernels.HostKernel.power_ahead>`).  The block is
        buffered, and the samples the simulator then delivers inside it
        are served from the buffer until :meth:`end_read_ahead`.

        Returns
        -------
        tuple[list[float], list[float]]
            Tick times and readings, ascending.
        """
        times = self._sampler.pending_ticks(until)
        if not times:
            self._ahead = None
            return [], []
        power, utils = self.host.kernel.power_ahead(times)
        state = self._rng.bit_generator.state
        readings = self._readings(power)
        self._rng.bit_generator.state = state
        self._ahead = (times, readings, utils)
        self._ahead_pos = 0
        return times, readings

    def end_read_ahead(self) -> None:
        """Drop the read-ahead buffer; later blocks are computed again."""
        self._ahead = None
        self._ahead_pos = 0

    # ------------------------------------------------------------------
    def stabilised(self, rule: StabilizationRule = StabilizationRule()) -> bool:
        """Whether the most recent readings satisfy the paper's rule.

        O(1) per check: the first query for a rule bootstraps an
        incremental :class:`~repro.telemetry.stabilization.StabilizationTracker`
        from the recorded trace; subsequent samples update it in place.
        """
        return self.tracker(rule).stable

    def tracker(self, rule: StabilizationRule = StabilizationRule()) -> StabilizationTracker:
        """The live incremental tracker of ``rule`` (created on first use)."""
        tracker = self._trackers.get(rule)
        if tracker is None:
            tracker = StabilizationTracker.from_signal(rule, self.trace.watts)
            self._trackers[rule] = tracker
        return tracker

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PowerMeter on {self.host.name} n={len(self.trace)}>"
