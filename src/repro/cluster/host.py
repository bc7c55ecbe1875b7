"""The physical host: CPU accounting, NIC flows, memory activity, power.

:class:`PhysicalHost` is the junction between the static machine catalog
and the dynamic simulation: the hypervisor and migration jobs register CPU
demand, NIC flows and memory activity under string keys, and the telemetry
subsystem reads aggregate utilisations and ground-truth power from here.

Utilisation reads carry deterministic, time-quantised jitter (see
:mod:`repro.simulator.noise`) so that repeated reads at one instant agree
while consecutive samples fluctuate like a real ``dstat`` trace.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.cluster.cpu import CpuAccountant
from repro.cluster.machines import MachineSpec
from repro.cluster.power import HostPowerModel
from repro.errors import CapacityError
from repro.simulator.kernels import HostKernel
from repro.simulator.noise import (
    hash_normal_unit,
    ou_like_noise,
    ou_like_noise_cached,
)

__all__ = ["PhysicalHost"]

#: Correlation quantum of utilisation jitter (scheduler-tick timescale).
_JITTER_QUANTUM_S = 0.5

#: Standard deviation of CPU utilisation jitter as a fraction of capacity,
#: scaled by how busy the host is (an idle host barely fluctuates).
_CPU_JITTER_SIGMA = 0.016

#: OU renormalisation of the thermal-drift process (blend = 0.75), the
#: exact value ``ou_like_noise`` computes from that blend.
_DRIFT_NORM = math.sqrt(0.75 * 0.75 + 0.25 * 0.25)


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
        # tick -> N(0,1) hash draw (one table per noise key), shared by
        # every batched telemetry reader of this host (meter, dstat,
        # feature recorder): the noise is a pure function, so memoisation
        # is free of read-order effects and bounds SHA-256 work per
        # unique tick.
        self._cpu_tick_cache: dict[int, float] = {}
        self._drift_tick_cache: dict[int, float] = {}
        # (cur_tick, prev_tick) -> blended drift value; the drift quantum
        # spans many samples, so the blend result repeats across reads.
        self._drift_value_cache: dict[tuple[int, int], float] = {}
        self._cpu_noise_key = f"cpu:{spec.name}"
        self._drift_noise_key = f"drift:{spec.name}"
        # t -> jittered utilisation read, valid because every telemetry
        # reader of one timestamp runs inside the same event-free interval
        # (identical host state) and timestamps never recur.
        self._util_read_cache: dict[float, float] = {}
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
        sigma = spec.power.thermal_sigma
        raw = ou_like_noise(self._noise_seed, f"thermal:{spec.name}", 0.0, 1e9, sigma=sigma, blend=0.0) if sigma else 0.0
        self._thermal_factor = 1.0 + min(max(raw, -2.5 * sigma), 2.5 * sigma)
        # Compute-mode kernel (repro.simulator.kernels); attached lazily by
        # the first vectorized instrument read.  None under compute="python".
        self._kernel: HostKernel | None = None

    # ------------------------------------------------------------------
    # Compute-mode kernel (vectorized fast path)
    # ------------------------------------------------------------------
    def attach_kernel(self) -> HostKernel:
        """Attach (idempotently) the vectorized compute kernel.

        The kernel hoists this host's static power envelope and live
        interval state and serves the batched power/utilisation reads of
        ``compute="numpy"`` — bit-identical to the scalar pipelines, which
        stay authoritative for short blocks and ``compute="python"``.
        """
        if self._kernel is None:
            self._kernel = HostKernel(
                self,
                jitter_quantum=_JITTER_QUANTUM_S,
                cpu_jitter_sigma=_CPU_JITTER_SIGMA,
                drift_norm=_DRIFT_NORM,
            )
        return self._kernel

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

    def _cpu_utilisation_fraction_values(self, times: list[float]) -> list[float]:
        """Batched jittered utilisation reads (plain floats, loop core).

        Serves each timestamp from the per-timestamp read memo when a
        co-located instrument (typically the power meter, which samples
        first) already computed it in this interval.
        """
        read_cache = self._util_read_cache
        get = read_cache.get
        values = [get(t) for t in times]
        if None in values:
            base = self.cpu.utilisation_fraction()
            scale = min(base / 0.1, 1.0) if base < 0.1 else 1.0
            sigma = _CPU_JITTER_SIGMA * scale
            for i, value in enumerate(values):
                if value is None:
                    t = times[i]
                    jitter = ou_like_noise_cached(
                        self._noise_seed,
                        self._cpu_noise_key,
                        t,
                        _JITTER_QUANTUM_S,
                        sigma,
                        0.6,
                        self._cpu_tick_cache,
                    )
                    value = min(max(base + jitter, 0.0), 1.0)
                    read_cache[t] = value
                    values[i] = value
        return values

    def cpu_utilisation_fraction_cached(self, t: float) -> float:
        """Scalar :meth:`cpu_utilisation_fraction` through the noise memo.

        The single-sample core of the batched kernel, used when an
        event-free interval holds too few samples for array operations to
        pay off.  Bit-identical to ``cpu_utilisation_fraction(t)``.

        The value is additionally memoised per timestamp: all batched
        instruments reading one timestamp do so inside the same
        event-free interval (the simulator advances every hook before
        firing the boundary event), so the host state they observe is
        identical and timestamps never recur.
        """
        value = self._util_read_cache.get(t)
        if value is None:
            base = self.cpu.utilisation_fraction()
            scale = min(base / 0.1, 1.0) if base < 0.1 else 1.0
            jitter = ou_like_noise_cached(
                self._noise_seed,
                self._cpu_noise_key,
                t,
                _JITTER_QUANTUM_S,
                _CPU_JITTER_SIGMA * scale,
                0.6,
                self._cpu_tick_cache,
            )
            value = min(max(base + jitter, 0.0), 1.0)
            self._util_read_cache[t] = value
        return value

    def cpu_utilisation_fraction_block(self, times: np.ndarray) -> np.ndarray:
        """Batched :meth:`cpu_utilisation_fraction` over an event-free interval.

        The accounting base is constant between events; only the
        deterministic read jitter varies per sample, served from the
        host's per-tick noise memo.  Bit-identical to per-sample scalar
        calls.
        """
        times = np.asarray(times, dtype=np.float64)
        return np.asarray(
            self._cpu_utilisation_fraction_values(times.tolist()), dtype=np.float64
        )

    def cpu_utilisation_percent_block(self, times: np.ndarray) -> np.ndarray:
        """Batched :meth:`cpu_utilisation_percent` (see the block variant)."""
        return self.cpu_utilisation_fraction_block(times) * 100.0

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

        The batched telemetry kernel's core read: CPU jitter and thermal
        drift come from the per-tick noise memo, the deterministic power
        terms are evaluated in the scalar method's exact operation order
        with interval constants hoisted, and memory/NIC activity are
        interval constants.  Bit-identical to calling
        :meth:`instantaneous_power` per sample.
        """
        model = self.power_model
        p = model.params
        # -- cpu read-jitter constants (cpu_utilisation_fraction) ---------
        base = self.cpu.utilisation_fraction()
        scale = min(base / 0.1, 1.0) if base < 0.1 else 1.0
        jitter_sigma = _CPU_JITTER_SIGMA * scale
        quantum = _JITTER_QUANTUM_S
        seed = self._noise_seed
        cpu_key = self._cpu_noise_key
        cpu_cache = self._cpu_tick_cache
        cpu_get = cpu_cache.get
        blend = 0.6
        one_minus = 1.0 - blend
        norm = math.sqrt(blend * blend + one_minus * one_minus)
        util_cache = self._util_read_cache
        # -- power-model constants (HostPowerModel.instantaneous_power) ---
        mem = min(max(self.memory_activity_fraction(), 0.0), 1.0)
        mem_term = p.memory_w * mem
        nic_term = p.nic_w * min(max(self.nic_utilisation_fraction(), 0.0), 1.0)
        model_floor = 0.35 * p.idle_w
        idle = p.idle_w
        linear = p.cpu_linear_w
        curved = p.cpu_curved_w
        exponent = p.cpu_curve_exponent
        interaction = p.interaction_w
        fan_steps = p.fan_steps
        transients = model.transients
        has_transients = transients.active_count > 0
        # -- host-envelope constants --------------------------------------
        thermal = self._thermal_factor
        host_floor = 0.3 * idle
        drift_sigma = p.drift_sigma_w
        if drift_sigma > 0:
            drift_quantum = p.drift_quantum_s
            drift_key = self._drift_noise_key
            drift_cache = self._drift_tick_cache
            drift_pairs = self._drift_value_cache
        floor_fn = math.floor
        out = []
        for t in times:
            # cpu_utilisation_fraction(t): base + OU hash jitter, clamped
            tick = floor_fn(t / quantum)
            current = cpu_get(tick)
            if current is None:
                current = hash_normal_unit(seed, cpu_key, tick)
                cpu_cache[tick] = current
            tick = floor_fn((t - quantum) / quantum)
            previous = cpu_get(tick)
            if previous is None:
                previous = hash_normal_unit(seed, cpu_key, tick)
                cpu_cache[tick] = previous
            jitter = jitter_sigma * (blend * previous + one_minus * current) / norm
            # min(max(x, 0, 1)) unrolled; ties keep the same float anyway
            u = base + jitter
            if u < 0.0:
                u = 0.0
            elif u > 1.0:
                u = 1.0
            util_cache[t] = u
            # HostPowerModel.instantaneous_power term sequence (u is
            # already in [0, 1]; the model's re-clamp is idempotent)
            power = idle + (linear * u + curved * u ** exponent)
            power = power + mem_term
            power = power + nic_term
            power = power + interaction * u * mem
            if fan_steps:
                # fan_power's sum() unrolled: same additions, same order
                # (an int-0 start and a float-0.0 start add identically).
                fan = 0.0
                for threshold, watts in fan_steps:
                    if u >= threshold:
                        fan = fan + watts
                power = power + fan
            if has_transients:
                power = power + transients.value(t)
            if power < model_floor:
                power = model_floor
            # host envelope: thermal scaling, drift, PSU floor
            power = idle + (power - idle) * thermal
            if drift_sigma > 0:
                dtick = floor_fn(t / drift_quantum)
                dprev = floor_fn((t - drift_quantum) / drift_quantum)
                drift = drift_pairs.get((dtick, dprev))
                if drift is None:
                    dcur_v = drift_cache.get(dtick)
                    if dcur_v is None:
                        dcur_v = hash_normal_unit(seed, drift_key, dtick)
                        drift_cache[dtick] = dcur_v
                    dprev_v = drift_cache.get(dprev)
                    if dprev_v is None:
                        dprev_v = hash_normal_unit(seed, drift_key, dprev)
                        drift_cache[dprev] = dprev_v
                    # ou_like_noise with blend=0.75 (0.75/0.25 are exact
                    # binary floats, so the literals match 1.0 - blend)
                    drift = drift_sigma * (0.75 * dprev_v + 0.25 * dcur_v) / _DRIFT_NORM
                    drift_pairs[(dtick, dprev)] = drift
                power = power + drift
            out.append(power if power > host_floor else host_floor)
        return out

    def instantaneous_power_block(self, times: np.ndarray) -> np.ndarray:
        """Array wrapper of :meth:`instantaneous_power_values`."""
        times = np.asarray(times, dtype=np.float64)
        return np.asarray(
            self.instantaneous_power_values(times.tolist()), dtype=np.float64
        )

    def idle_power_w(self) -> float:
        """Catalogued idle draw of the machine."""
        return self.spec.power.idle_w
