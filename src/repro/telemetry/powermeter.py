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
  vectorized block (:meth:`~repro.cluster.host.PhysicalHost.instantaneous_power_block`),
  draws all measurement noise in one ``Generator.normal`` call (numpy
  consumes the *same stream in the same order* as per-sample scalar
  draws), quantises/clips vectorized, and bulk-appends to the trace.

Both modes produce bit-identical traces; the batched mode additionally
feeds incremental stabilisation trackers so :meth:`PowerMeter.stabilised`
is O(1) per check (event mode gets the same trackers).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.host import PhysicalHost
from repro.errors import ConfigurationError
from repro.simulator.engine import Simulator
from repro.simulator.kernels import validate_compute
from repro.simulator.sampling import SCALAR_BLOCK_MAX, PeriodicSampler
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
        Select the vectorized interval-hook fast path (bit-identical to
        event mode; see the module docstring).
    compute:
        Kernel selection for batched blocks (``"python"`` | ``"numpy"``;
        see :mod:`repro.simulator.kernels`).  ``"python"`` replays the
        event-mode scalar pipeline per sample regardless of block length;
        ``"numpy"`` runs the array kernels on long blocks.  Same bits in
        both modes.
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
        compute: str = "numpy",
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
        self._compute = validate_compute(compute)
        self._sampler = PeriodicSampler(
            sim,
            period_s,
            self._sample,
            batched=batched,
            batch_callback=self._sample_block if batched else None,
            vectorized=batched and self._compute != "python",
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

    def _sample_block(self, times: np.ndarray) -> None:
        """One event-free interval's worth of readings, batched.

        The host's ground truth is read through the fused block kernel
        (interval constants hoisted, per-tick noise memoised); measurement
        noise, quantisation and clipping mirror :meth:`_sample` per
        element.  Long blocks run the numpy stage — ``Generator.normal``
        with an array sigma consumes the *identical RNG stream* as
        per-sample scalar draws, and ``np.round`` matches ``round()``'s
        half-to-even on float64 — while short blocks (where numpy's fixed
        per-call overhead dominates) loop the scalar stage over the same
        block values.  Same bits either way.
        """
        times_list = times.tolist()
        n = len(times_list)
        if self._compute != "python" and n > SCALAR_BLOCK_MAX:
            # Ground truth through the compute-mode array kernel (the
            # host's SoA row + noise tick grids); bit-identical to the
            # scalar kernel below, which short blocks keep using.
            kernel = self.host.attach_kernel()
            tp_arr = kernel.power_block(times, times_list)
            if self._accuracy:
                noise_sigma = self._accuracy / 3.0 * tp_arr
                # A zero sigma would skip its scalar draw; ground-truth
                # power is floored well above zero so this cannot happen,
                # but fall back to the exact per-sample stage if it ever
                # does rather than silently shifting the RNG stream.
                if not np.all(noise_sigma > 0):  # pragma: no cover - defensive
                    self._scalar_stage(times_list, tp_arr.tolist())
                    return
                # normal(0, s) is 0.0 + s*z per draw: one standard-normal
                # block consumes the identical stream, bit for bit.
                readings = tp_arr + noise_sigma * self._rng.standard_normal(n)
            else:
                readings = tp_arr
            if self._quantisation > 0:
                readings = np.round(readings / self._quantisation) * self._quantisation
            readings = np.maximum(readings, 0.0)
            buf_t, buf_w, start = self.trace._reserve(n, times_list[0])
            buf_t[start:start + n] = times
            buf_w[start:start + n] = readings
            self.trace._commit(n)
            for tracker in self._trackers.values():
                tracker.observe_block(readings)
            return
        true_power = self.host.instantaneous_power_values(times_list)
        # compute="python" is the scalar reference: per-sample RNG draws
        # (the exact event-mode pipeline); the hybrid modes scale one
        # block draw instead — same stream, same bits.
        self._scalar_stage(
            times_list, true_power, block_draws=self._compute != "python"
        )

    def _scalar_stage(
        self, times_list: list, true_power: list, block_draws: bool = True
    ) -> None:
        """Per-sample measurement stage over precomputed block values.

        With ``block_draws`` the draws come from one ``standard_normal``
        block scaled per sample: ``Generator.normal(0, s)`` is exactly
        ``0.0 + s * z`` with ``z`` the next standard draw, so the scaled
        block consumes the same stream and yields the same readings bit
        for bit (``0.0 + x`` cannot change a reading added to a positive
        power).  ``compute="python"`` disables the block draw and takes
        the per-sample ``normal(0, s)`` branch instead — the event-mode
        reference pipeline, stream-identical by the same argument.
        Readings are written straight into reserved trace capacity; the
        sampler's tick grid is strictly increasing by construction.
        """
        acc3 = self._accuracy / 3.0
        quantisation = self._quantisation
        trackers = list(self._trackers.values())
        n = len(times_list)
        # One block draw is only stream-equivalent if every sample draws;
        # ground truth is floored above zero, so with accuracy > 0 every
        # sigma is positive (min() guards the impossible case exactly).
        draws = (
            self._rng.standard_normal(n).tolist()
            if block_draws and acc3 and n > 1 and min(true_power) > 0
            else None
        )
        buf_t, buf_w, start = self.trace._reserve(n, times_list[0])
        for i, t in enumerate(times_list):
            tp = true_power[i]
            noise_sigma = acc3 * tp
            if draws is not None:
                reading = tp + noise_sigma * draws[i]
            elif noise_sigma:
                reading = tp + float(self._rng.normal(0.0, noise_sigma))
            else:
                reading = tp
            if quantisation > 0:
                reading = round(reading / quantisation) * quantisation
            reading = max(reading, 0.0)
            buf_t[start + i] = t
            buf_w[start + i] = reading
            for tracker in trackers:
                tracker.observe(reading)
        self.trace._commit(n)

    # ------------------------------------------------------------------
    def stabilised(self, rule: StabilizationRule = StabilizationRule()) -> bool:
        """Whether the most recent readings satisfy the paper's rule.

        O(1) per check: the first query for a rule bootstraps an
        incremental :class:`~repro.telemetry.stabilization.StabilizationTracker`
        from the recorded trace; subsequent samples update it in place.
        """
        return self._tracker(rule).stable

    def stabilisation_deficit(self, rule: StabilizationRule = StabilizationRule()) -> int:
        """Minimum further readings before :meth:`stabilised` can flip true.

        Exposes the incremental tracker's
        :attr:`~repro.telemetry.stabilization.StabilizationTracker.deficit`
        for the runner's look-ahead (0 when already stable).
        """
        return self._tracker(rule).deficit

    def _tracker(self, rule: StabilizationRule) -> StabilizationTracker:
        tracker = self._trackers.get(rule)
        if tracker is None:
            tracker = StabilizationTracker.from_signal(rule, self.trace.watts)
            self._trackers[rule] = tracker
        return tracker

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PowerMeter on {self.host.name} n={len(self.trace)}>"
