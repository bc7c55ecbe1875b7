"""The physical host: CPU accounting, NIC flows, memory activity, power.

:class:`PhysicalHost` is the junction between the static machine catalog
and the dynamic simulation: the hypervisor and migration jobs register CPU
demand, NIC flows and memory activity under string keys, and the telemetry
subsystem reads aggregate utilisations and ground-truth power from here.

Utilisation reads carry deterministic, time-quantised jitter (see
:mod:`repro.simulator.noise`) so that repeated reads at one instant agree
while consecutive samples fluctuate like a real ``dstat`` trace.  The host
owns one :class:`~repro.simulator.noise.NoiseStream` per jitter process
(CPU and thermal drift); its batched readers all draw from them.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.cpu import CpuAccountant
from repro.cluster.machines import MachineSpec
from repro.cluster.power import HostPowerModel
from repro.errors import CapacityError
from repro.simulator.kernels import HostKernel
from repro.simulator.noise import NoiseStream, hash_normal_unit, ou_like_noise

__all__ = ["PhysicalHost"]

#: Correlation quantum of utilisation jitter: one draw per power-meter
#: period (the PM1000+ reads at 2 Hz, Section V-B).
_JITTER_QUANTUM_S = 0.5

#: The Xen credit scheduler's tick: the timescale at which a busy host's
#: CPU share fluctuates.
_SCHED_TICK_S = 0.01

#: Standard deviation of CPU utilisation jitter per scheduler tick, as a
#: fraction of capacity, scaled by how busy the host is (an idle host
#: barely fluctuates).
_TICK_JITTER_SIGMA = 0.016

#: The jitter of one read.  A meter reading is the mean draw over its
#: period (Section V-B's PM1000+ units, whose readings the paper's
#: stability rule compares), so the per-tick jitter averages down over the
#: ``_JITTER_QUANTUM_S / _SCHED_TICK_S`` ticks of one quantum:
#: ``0.016 / sqrt(50)`` ≈ 0.00226.  The feature recorder's host-CPU reads
#: share this stream and this sigma.
_CPU_JITTER_SIGMA = _TICK_JITTER_SIGMA * math.sqrt(_SCHED_TICK_S / _JITTER_QUANTUM_S)


class PhysicalHost:
    """A physical machine participating in the simulated testbed.

    Parameters
    ----------
    spec:
        Static description from the machine catalog.
    noise_seed:
        Seed for the host's deterministic jitter processes (derived from
        the experiment's master seed by the testbed builder).
    """

    def __init__(self, spec: MachineSpec, noise_seed: int = 0) -> None:
        self.spec = spec
        self.cpu = CpuAccountant(spec.capacity_threads)
        self.power_model = HostPowerModel(spec.power)
        self._noise_seed = int(noise_seed)
        self._nic_flows: dict[str, tuple[float, float]] = {}
        self._memory_activity: dict[str, float] = {}
        #: The CPU-jitter and thermal-drift processes that the batched
        #: telemetry readers of this host (meter, dstat, feature recorder)
        #: share; the scalar reads below compute the same noise directly.
        self.cpu_noise = NoiseStream(self._noise_seed, f"cpu:{spec.name}", _JITTER_QUANTUM_S)
        self.drift_noise = NoiseStream(
            self._noise_seed, f"drift:{spec.name}", spec.power.drift_quantum_s, blend=0.75
        )
        # Flow/activity-table versions with memoised aggregates: telemetry
        # reads these per sample, the tables change only on events.  A
        # memoised value is produced by the same summation expression as a
        # fresh read, so the two are bit-identical.
        self._flows_version = 0
        self._flows_cache_version = -1
        self._nic_tx_cache = 0.0
        self._nic_rx_cache = 0.0
        self._memory_version = 0
        self._memory_cache_version = -1
        self._memory_cache = 0.0
        # Per-run thermal state: constant for this host instance's lifetime
        # (a fresh host is built per experimental run), clamped to ±2.5 σ.
        # This is ou_like_noise(seed, key, 0.0, 1e9, sigma, blend=0.0): with
        # blend 0 the previous tick is weighted 0.0 and the norm is 1.0, so
        # the value is sigma times the tick-0 draw, bit for bit.
        sigma = spec.power.thermal_sigma
        raw = sigma * hash_normal_unit(self._noise_seed, f"thermal:{spec.name}", 0) if sigma else 0.0
        self._thermal_factor = 1.0 + min(max(raw, -2.5 * sigma), 2.5 * sigma)
        #: The batched telemetry reads of this host (repro.simulator.kernels).
        self.kernel = HostKernel(self, cpu_jitter_sigma=_CPU_JITTER_SIGMA)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Catalog name of the machine (``m01`` …)."""
        return self.spec.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PhysicalHost {self.name} cpu={self.cpu.utilisation_percent():.1f}%>"

    # ------------------------------------------------------------------
    # NIC flows
    # ------------------------------------------------------------------
    def set_nic_flow(self, key: str, tx_bps: float = 0.0, rx_bps: float = 0.0) -> None:
        """Register or update a named traffic flow on the host NIC."""
        if tx_bps < 0 or rx_bps < 0:
            raise CapacityError(f"flow rates must be non-negative ({key!r})")
        self._nic_flows[key] = (float(tx_bps), float(rx_bps))
        self._flows_version += 1

    def clear_nic_flow(self, key: str) -> None:
        """Remove a named traffic flow; missing keys are ignored."""
        self._nic_flows.pop(key, None)
        self._flows_version += 1

    def _refresh_nic_cache(self) -> None:
        self._nic_tx_cache = min(
            sum(tx for tx, _ in self._nic_flows.values()), self.spec.nic.goodput_bps
        )
        self._nic_rx_cache = min(
            sum(rx for _, rx in self._nic_flows.values()), self.spec.nic.goodput_bps
        )
        self._flows_cache_version = self._flows_version

    def nic_tx_bps(self) -> float:
        """Aggregate transmit rate in bytes/s (clamped to NIC goodput)."""
        if self._flows_cache_version != self._flows_version:
            self._refresh_nic_cache()
        return self._nic_tx_cache

    def nic_rx_bps(self) -> float:
        """Aggregate receive rate in bytes/s (clamped to NIC goodput)."""
        if self._flows_cache_version != self._flows_version:
            self._refresh_nic_cache()
        return self._nic_rx_cache

    def nic_utilisation_fraction(self) -> float:
        """NIC busy fraction in [0, 1] (max of the two directions)."""
        return max(self.nic_tx_bps(), self.nic_rx_bps()) / self.spec.nic.goodput_bps

    # ------------------------------------------------------------------
    # Memory activity
    # ------------------------------------------------------------------
    def set_memory_activity(self, key: str, fraction: float) -> None:
        """Register memory-bus activity of a component as a [0, 1] fraction.

        Contributions add up and the aggregate is clamped to 1 (the bus
        saturates), mirroring how dirty-page writes and migration copies
        contend for the same memory bandwidth.
        """
        if fraction < 0:
            raise CapacityError(f"memory activity must be non-negative ({key!r})")
        self._memory_activity[key] = float(fraction)
        self._memory_version += 1

    def clear_memory_activity(self, key: str) -> None:
        """Remove a memory-activity contribution; missing keys are ignored."""
        self._memory_activity.pop(key, None)
        self._memory_version += 1

    def memory_activity_fraction(self) -> float:
        """Aggregate memory-bus activity in [0, 1]."""
        if self._memory_cache_version != self._memory_version:
            self._memory_cache = min(1.0, sum(self._memory_activity.values()))
            self._memory_cache_version = self._memory_version
        return self._memory_cache

    # ------------------------------------------------------------------
    # Utilisation views (what dstat and the power model see)
    # ------------------------------------------------------------------
    def cpu_utilisation_fraction(self, t: Optional[float] = None) -> float:
        """Host CPU utilisation in [0, 1], optionally with read jitter at ``t``.

        Passing ``t`` adds the deterministic time-quantised jitter used by
        telemetry; ``t=None`` returns the noise-free accounting value.
        """
        base = self.cpu.utilisation_fraction()
        if t is None:
            return base
        # Idle hosts barely fluctuate; busy hosts fluctuate most mid-range
        # (at the pinned ceiling the scheduler cannot exceed capacity).
        scale = min(base / 0.1, 1.0) if base < 0.1 else 1.0
        jitter = ou_like_noise(
            self._noise_seed,
            f"cpu:{self.name}",
            t,
            _JITTER_QUANTUM_S,
            sigma=_CPU_JITTER_SIGMA * scale,
        )
        return min(max(base + jitter, 0.0), 1.0)

    def cpu_utilisation_percent(self, t: Optional[float] = None) -> float:
        """Host CPU utilisation in percent [0, 100] (model feature units)."""
        return self.cpu_utilisation_fraction(t) * 100.0

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def instantaneous_power(self, t: float) -> float:
        """Ground-truth wall power (W) at simulated time ``t``.

        Includes the slow thermal/fan drift process — deliberately
        *absent* from every model feature, so the fitted models face the
        same unexplained low-frequency structure as real meters record.
        """
        power = self.power_model.instantaneous_power(
            t,
            cpu_utilisation_fraction=self.cpu_utilisation_fraction(t),
            memory_activity_fraction=self.memory_activity_fraction(),
            nic_utilisation_fraction=self.nic_utilisation_fraction(),
        )
        params = self.spec.power
        # Run-constant thermal scaling of the dynamic (above-idle) draw.
        power = params.idle_w + (power - params.idle_w) * self._thermal_factor
        if params.drift_sigma_w > 0:
            power += ou_like_noise(
                self._noise_seed,
                f"drift:{self.name}",
                t,
                params.drift_quantum_s,
                sigma=params.drift_sigma_w,
                blend=0.75,
            )
        return max(power, 0.3 * params.idle_w)

    def instantaneous_power_values(self, times: list[float]) -> list[float]:
        """Batched :meth:`instantaneous_power` over an event-free interval.

        ``times`` are ascending sample times inside one event-free
        interval; the host's :class:`~repro.simulator.kernels.HostKernel`
        evaluates them bit-identically to per-sample calls.
        """
        return self.kernel.power_block(times)

    def idle_power_w(self) -> float:
        """Catalogued idle draw of the machine."""
        return self.spec.power.idle_w
