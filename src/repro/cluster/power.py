"""Ground-truth host power model.

This module is the *simulated physical reality* that the Voltech meters
sample.  It is intentionally **richer** than any of the fitted models
(WAVM3 included): the CPU term carries a mild super-linear component, the
memory and NIC terms are separate, and short transients fire at phase
boundaries.  The fitted models therefore face a genuine identification
problem — exactly like regressing wall-power measurements of a real host —
instead of trivially recovering the generator's own functional form.

Composition (all terms in watts)::

    P(t) = idle
         + cpu_linear * u + cpu_curved * u**exponent     (u: host util. [0,1])
         + memory_w   * memory activity fraction          (dirty/copy traffic)
         + nic_w      * NIC utilisation fraction
         + transients (initiation peaks, resource checks)
         - suspend dip (brief drop right after a VM suspension)

Measurement noise lives in the *meter* (:mod:`repro.telemetry.powermeter`),
not here, so ground truth stays deterministic given the RNG streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["PowerModelParams", "Transient", "TransientPool", "HostPowerModel"]


@dataclass(frozen=True)
class PowerModelParams:
    """Static power envelope of a machine.

    Parameters
    ----------
    idle_w:
        Wall power of the idle host (dom-0 only).
    cpu_linear_w:
        Watts added at 100 % utilisation by the linear CPU term.
    cpu_curved_w:
        Watts added at 100 % utilisation by the super-linear CPU term.
    cpu_curve_exponent:
        Exponent of the super-linear term (> 1 ⇒ convex, mimicking
        frequency/voltage and fan effects at high load).  This curvature
        is the main *structural* misfit the linear energy models face —
        the source of realistic double-digit NRMSE.
    memory_w:
        Watts added at full memory-bus activity.
    nic_w:
        Watts added at NIC line rate.
    suspend_dip_w:
        Magnitude of the brief power dip when a VM is suspended.
    interaction_w:
        Watts of CPU×memory interaction at full utilisation of both —
        shared caches and the memory controller draw more when the cores
        are also busy.  Unobservable by any of the fitted models.
    drift_sigma_w:
        Sigma of the slow thermal/fan power drift (unobserved by models).
    drift_quantum_s:
        Correlation time of the drift process.
    fan_steps:
        Discrete chassis-fan speed steps as ``(utilisation_threshold,
        incremental_watts)`` pairs: each step's watts are *added* once
        utilisation reaches its threshold.  A step function is the
        archetypal structure a linear CPU term cannot fit — a major
        contributor to the double-digit NRMSE real testbeds exhibit.
    thermal_sigma:
        Relative sigma of the per-run thermal state: the machine's dynamic
        power is scaled by a run-constant factor ``N(1, thermal_sigma)``
        (hot heatsinks leak more, silicon efficiency varies with die
        temperature).  Constant within a run, different across runs —
        irreducible error for models trained across runs, the same way a
        real testbed's consecutive repetitions never measure identically.
    """

    idle_w: float
    cpu_linear_w: float
    cpu_curved_w: float
    cpu_curve_exponent: float = 1.4
    memory_w: float = 50.0
    nic_w: float = 20.0
    suspend_dip_w: float = 15.0
    interaction_w: float = 0.0
    drift_sigma_w: float = 0.0
    drift_quantum_s: float = 20.0
    fan_steps: tuple[tuple[float, float], ...] = ()
    thermal_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.idle_w <= 0:
            raise ConfigurationError(f"idle_w must be positive, got {self.idle_w!r}")
        for name in (
            "cpu_linear_w", "cpu_curved_w", "memory_w", "nic_w",
            "suspend_dip_w", "interaction_w", "drift_sigma_w",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.cpu_curve_exponent < 1.0:
            raise ConfigurationError(
                f"cpu_curve_exponent must be >= 1, got {self.cpu_curve_exponent!r}"
            )
        if self.drift_quantum_s <= 0:
            raise ConfigurationError(
                f"drift_quantum_s must be positive, got {self.drift_quantum_s!r}"
            )
        for threshold, watts in self.fan_steps:
            if not 0.0 <= threshold <= 1.0 or watts < 0:
                raise ConfigurationError(
                    f"fan step ({threshold}, {watts}) invalid: threshold in "
                    f"[0, 1], watts >= 0"
                )
        if not 0.0 <= self.thermal_sigma < 0.5:
            raise ConfigurationError(
                f"thermal_sigma must be in [0, 0.5), got {self.thermal_sigma!r}"
            )

    # NOTE: the batched telemetry kernel (HostKernel.power_block in
    # repro.simulator.kernels) replays this model's term sequence
    # operation-by-operation with hoisted constants for speed.  Any
    # change to cpu_power/fan_power/instantaneous_power below must be
    # mirrored there; the cross-path golden tests
    # (tests/test_telemetry_batched.py, tests/test_compute_modes.py) fail
    # on any divergence.
    def kernel_constants(self) -> tuple:
        """Per-type constants of the fused power kernels.

        Returns the hoisted scalar terms plus the fan-step thresholds and
        watts as parallel tuples, in exactly the composition order of
        :meth:`HostPowerModel.instantaneous_power` — the single source the
        interval kernels in :mod:`repro.simulator.kernels` initialise from.
        The memory and NIC terms scale live fractions, and the drift
        quantum belongs to the host's drift noise stream, so neither is
        here.
        """
        thresholds = tuple(threshold for threshold, _ in self.fan_steps)
        watts = tuple(watts for _, watts in self.fan_steps)
        return (
            self.idle_w,
            self.cpu_linear_w,
            self.cpu_curved_w,
            self.cpu_curve_exponent,
            self.interaction_w,
            0.35 * self.idle_w,  # the PSU base-load model floor
            thresholds,
            watts,
            self.drift_sigma_w,
        )


    def cpu_power(self, utilisation_fraction: float) -> float:
        """Dynamic CPU power (W) at a given utilisation in [0, 1]."""
        u = min(max(utilisation_fraction, 0.0), 1.0)
        return self.cpu_linear_w * u + self.cpu_curved_w * u**self.cpu_curve_exponent

    def fan_power(self, utilisation_fraction: float) -> float:
        """Chassis-fan power (W): cumulative discrete steps over thresholds."""
        u = min(max(utilisation_fraction, 0.0), 1.0)
        return sum(watts for threshold, watts in self.fan_steps if u >= threshold)


@dataclass(frozen=True)
class Transient:
    """A short additive power excursion (e.g. an initiation peak).

    ``shape`` selects the time profile over ``[t0, t0+duration]``:

    * ``"rect"`` — constant amplitude;
    * ``"decay"`` — exponential decay from ``amplitude`` with time constant
      ``duration / 3`` (≈ 95 % gone by the end of the window).

    Negative amplitudes model dips (VM suspension).
    """

    t0: float
    duration: float
    amplitude_w: float
    shape: str = "decay"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError(f"transient duration must be positive, got {self.duration!r}")
        if self.shape not in ("rect", "decay"):
            raise ConfigurationError(f"unknown transient shape {self.shape!r}")

    def value(self, t: float) -> float:
        """Contribution in watts at absolute time ``t`` (0 outside window)."""
        if t < self.t0 or t > self.t0 + self.duration:
            return 0.0
        if self.shape == "rect":
            return self.amplitude_w
        tau = self.duration / 3.0
        return self.amplitude_w * math.exp(-(t - self.t0) / tau)


class TransientPool:
    """Collects transients and sums their instantaneous contributions.

    Reads are pure: a transient that has ended stays in the pool and is
    skipped.  A host carries a handful of peaks per run, and a block
    reader filters them once (:meth:`live`).
    """

    def __init__(self) -> None:
        self._items: list[Transient] = []

    def add(self, transient: Transient) -> None:
        """Register a transient."""
        self._items.append(transient)

    def add_peak(self, t0: float, duration: float, amplitude_w: float, shape: str = "decay") -> None:
        """Convenience constructor + register."""
        self.add(Transient(t0=t0, duration=duration, amplitude_w=amplitude_w, shape=shape))

    def value(self, t: float) -> float:
        """Summed contribution at ``t`` of the transients not ended by ``t``."""
        total = 0.0
        for item in self.live(t):
            total += item.value(t)
        return total

    def live(self, t: float) -> tuple:
        """The transients, in insertion order, that have not ended by ``t``."""
        return tuple(item for item in self._items if t <= item.t0 + item.duration)

    def clear(self) -> None:
        """Drop all transients."""
        self._items.clear()


class HostPowerModel:
    """Evaluates the ground-truth wall power of a host.

    The model reads the host's live state through a narrow protocol —
    ``cpu_utilisation_fraction()``, ``memory_activity_fraction()`` and
    ``nic_utilisation_fraction()`` — so it stays decoupled from the host
    class (and trivially testable with stubs).
    """

    def __init__(self, params: PowerModelParams) -> None:
        self._params = params
        self._transients = TransientPool()

    @property
    def params(self) -> PowerModelParams:
        """The static envelope parameters."""
        return self._params

    @property
    def transients(self) -> TransientPool:
        """The pool of scheduled transients (migration code adds peaks here)."""
        return self._transients

    def instantaneous_power(
        self,
        t: float,
        cpu_utilisation_fraction: float,
        memory_activity_fraction: float,
        nic_utilisation_fraction: float,
    ) -> float:
        """Ground-truth wall power (W) for the given state at time ``t``."""
        p = self._params
        u = min(max(cpu_utilisation_fraction, 0.0), 1.0)
        mem = min(max(memory_activity_fraction, 0.0), 1.0)
        power = p.idle_w
        power += p.cpu_power(u)
        power += p.memory_w * mem
        power += p.nic_w * min(max(nic_utilisation_fraction, 0.0), 1.0)
        power += p.interaction_w * u * mem
        power += p.fan_power(u)
        power += self._transients.value(t)
        # Wall power cannot drop below a floor even during dips: PSU base load.
        return max(power, 0.35 * p.idle_w)
