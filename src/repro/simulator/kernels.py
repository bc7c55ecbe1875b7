"""Vectorized simulation kernels — the ``compute=`` axis.

The batched telemetry path (``telemetry="batched"``) removed per-sample
event dispatch; what remains hot is the *arithmetic* inside each
event-free interval: host power composition, jittered CPU reads and
per-VM CPU features, all previously evaluated as scalar Python loops
over object state.  This module evaluates those interval kernels as
numpy array operations:

* ``compute="python"`` — the scalar reference: every instrument samples
  through its per-sample memoised pipeline regardless of block length
  (the exact event-mode semantics, batched only in delivery).
* ``compute="numpy"`` (default) — the adaptive hybrid: short blocks run
  the scalar stage (numpy's fixed per-call overhead dominates there),
  long blocks run the vectorized array kernels below.

**Bit-identity discipline.** Both modes must produce byte-identical
campaign samples JSON (the cross-mode golden tests assert it), so the
run cache deliberately ignores the ``compute`` field.  The vectorized
kernels therefore only use elementwise operations that are exact under
IEEE-754 (add, subtract, multiply, divide, compare, min/max, floor) —
transcendentals (``x ** e``, ``log``, ``cos``) stay *scalar* because
numpy's SIMD routines are not bit-identical to libm on every platform.
Noise draws keep their SHA-256 definition unchanged; they are merely
cached in contiguous per-key :class:`NoiseTickGrid` arrays instead of
(or alongside) the per-tick memo dicts, and the two stores agree bit for
bit because the draw is a pure function of ``(seed, key, tick)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.simulator.noise import hash_normal_unit_fill

__all__ = [
    "COMPUTE_MODES",
    "HostKernel",
    "NoiseTickGrid",
    "VmKernel",
    "sampler_tick_grid",
    "validate_compute",
]

#: The selectable compute modes, mirroring the ``telemetry=`` axis.
COMPUTE_MODES = ("python", "numpy")


def validate_compute(mode: str) -> str:
    """Reject anything outside :data:`COMPUTE_MODES`; returns ``mode``."""
    if mode not in COMPUTE_MODES:
        raise ConfigurationError(
            f"compute must be one of {COMPUTE_MODES}, got {mode!r}"
        )
    return mode


# ----------------------------------------------------------------------
# Vectorized sampler tick grid
# ----------------------------------------------------------------------
def sampler_tick_grid(
    base: float, k0: int, period: float, t1: float
) -> tuple[Optional[np.ndarray], int]:
    """Every sampler tick ``base + k * period <= t1`` with ``k >= k0``.

    Bit-identical to the scalar generation loop in
    :meth:`~repro.simulator.sampling.PeriodicSampler.advance_to`: each
    timestamp is the same ``base + k * period`` float64 expression (tick
    indices are far below 2**53, so ``k`` is exact in float64 and the
    elementwise multiply/add match the scalar ones), and the stop rule is
    the same ``<= t1`` comparison — seeded from a floor-division estimate
    and corrected by the comparison itself, so division rounding cannot
    drop or invent a boundary tick.

    Returns ``(ticks, next_k)``; ``ticks`` is ``None`` when the interval
    holds no tick.
    """
    est = k0 + int((t1 - (base + k0 * period)) / period)
    if est < k0:
        est = k0
    while base + est * period <= t1:
        est += 1
    est -= 1  # now the last index at or before t1 (if any)
    while est >= k0 and base + est * period > t1:
        est -= 1
    if est < k0:
        return None, k0
    ks = np.arange(k0, est + 1, dtype=np.float64)
    return base + ks * period, est + 1


# ----------------------------------------------------------------------
# Noise tick grids
# ----------------------------------------------------------------------
class NoiseTickGrid:
    """Contiguous per-``(seed, key)`` cache of hash-normal draws.

    The array analogue of the hosts' per-tick memo dicts: draws for the
    tick range ``[lo, hi)`` live in one float64 array, filled through
    :func:`~repro.simulator.noise.hash_normal_unit_fill` (bit-identical
    per tick to the scalar draw, so grid and dict stores agree wherever
    they overlap).  Samplers walk time forward over dense tick ranges, so
    the grid only ever extends at its ends — never reallocating what the
    vectorized kernels already gathered from.
    """

    __slots__ = ("_seed", "_key", "_lo", "_values")

    def __init__(self, seed: int, key: str) -> None:
        self._seed = int(seed)
        self._key = key
        self._lo = 0
        self._values = np.empty(0, dtype=np.float64)

    def _ensure(self, lo: int, hi: int) -> None:
        values = self._values
        if values.size == 0:
            self._values = hash_normal_unit_fill(self._seed, self._key, lo, hi)
            self._lo = lo
            return
        if lo < self._lo:
            front = hash_normal_unit_fill(self._seed, self._key, lo, self._lo)
            values = np.concatenate((front, values))
            self._lo = lo
        end = self._lo + values.size
        if hi > end:
            back = hash_normal_unit_fill(self._seed, self._key, end, hi)
            values = np.concatenate((values, back))
        self._values = values

    def gather_pair(
        self, cur_ticks: np.ndarray, prev_ticks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draws for elementwise (current, previous) tick pairs.

        Tick arrays come from floored, ascending sample times, so the
        combined range is dense: one contiguous fill covers both gathers.
        """
        lo = int(min(cur_ticks[0], prev_ticks[0]))
        hi = int(max(cur_ticks[-1], prev_ticks[-1])) + 1
        self._ensure(lo, hi)
        base = self._lo
        values = self._values
        return values[cur_ticks - base], values[prev_ticks - base]

    def value(self, tick: int) -> float:
        """Scalar draw at one tick (extends the grid if needed)."""
        lo = self._lo
        if self._values.size == 0 or tick < lo or tick >= lo + self._values.size:
            self._ensure(min(tick, lo) if self._values.size else tick,
                         max(tick + 1, lo + self._values.size))
        return float(self._values[tick - self._lo])

    @property
    def size(self) -> int:
        """Number of cached draws (introspection/tests)."""
        return int(self._values.size)


# ----------------------------------------------------------------------
# Host kernel
# ----------------------------------------------------------------------
class HostKernel:
    """Vectorized power/CPU kernels over one host's interval state.

    Owns the host's noise tick grids; the static power envelope is hoisted
    once (from
    :meth:`~repro.cluster.power.PowerModelParams.kernel_constants`, the
    single source the scalar kernel hoists from too) and the live fields
    are refreshed lazily through the owners' version counters.
    """

    def __init__(
        self,
        host,
        *,
        jitter_quantum: float,
        cpu_jitter_sigma: float,
        drift_norm: float,
    ) -> None:
        self.host = host
        (
            idle,
            linear,
            curved,
            exponent,
            _memory_w,
            _nic_w,
            interaction,
            model_floor,
            fan_thresholds,
            fan_watts,
            drift_sigma,
            drift_quantum,
        ) = host.power_model.params.kernel_constants()
        self._idle = idle
        self._linear = linear
        self._curved = curved
        self._exponent = exponent
        self._interaction = interaction
        self._model_floor = model_floor
        self._host_floor = 0.3 * idle
        self._thermal = host._thermal_factor
        self._drift_sigma = drift_sigma
        self._drift_quantum = drift_quantum
        self._fan_steps = tuple(zip(fan_thresholds, fan_watts))
        self._quantum = jitter_quantum
        self._cpu_jitter_sigma = cpu_jitter_sigma
        self._drift_norm = drift_norm
        # The same blend constants instantaneous_power_values hoists.
        self._blend = 0.6
        self._one_minus = 1.0 - self._blend
        self._norm = math.sqrt(
            self._blend * self._blend + self._one_minus * self._one_minus
        )
        # Live fields and the owner versions they were derived at.
        self._base = 0.0
        self._jitter_sigma = 0.0
        self._mem = 0.0
        self._mem_term = 0.0
        self._nic_term = 0.0
        self.cpu_version = -1
        self.memory_version = -1
        self.flows_version = -1
        self._cpu_grid = NoiseTickGrid(host._noise_seed, host._cpu_noise_key)
        self._drift_grid = NoiseTickGrid(host._noise_seed, host._drift_noise_key)

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Refresh the live fields through the version counters.

        CPU base utilisation, the derived jitter sigma and the memory/NIC
        power terms change only on events; each is re-derived (by the
        exact expressions the scalar kernel hoists) only when its owning
        counter moved.
        """
        host = self.host
        cpu = host.cpu
        if self.cpu_version != cpu._version:
            base = cpu.utilisation_fraction()
            scale = min(base / 0.1, 1.0) if base < 0.1 else 1.0
            self._base = base
            self._jitter_sigma = self._cpu_jitter_sigma * scale
            self.cpu_version = cpu._version
        if self.memory_version != host._memory_version:
            mem = min(max(host.memory_activity_fraction(), 0.0), 1.0)
            self._mem = mem
            self._mem_term = host.power_model.params.memory_w * mem
            self.memory_version = host._memory_version
        if self.flows_version != host._flows_version:
            nic = min(max(host.nic_utilisation_fraction(), 0.0), 1.0)
            self._nic_term = host.power_model.params.nic_w * nic
            self.flows_version = host._flows_version

    # ------------------------------------------------------------------
    def _jittered_util(self, times: np.ndarray) -> np.ndarray:
        """Clamped jittered utilisation (exact elementwise ops only)."""
        q = self._quantum
        cur_ticks = np.floor(times / q).astype(np.int64)
        prev_ticks = np.floor((times - q) / q).astype(np.int64)
        cur, prv = self._cpu_grid.gather_pair(cur_ticks, prev_ticks)
        jitter = self._jitter_sigma * (self._blend * prv + self._one_minus * cur) / self._norm
        return np.minimum(np.maximum(self._base + jitter, 0.0), 1.0)

    def util_block(self, times: np.ndarray, times_list: list) -> np.ndarray:
        """Batched jittered CPU utilisation in [0, 1].

        Serves fully from the host's per-timestamp read memo when a
        co-located instrument (typically the power meter, which samples
        first) already computed the block; otherwise recomputes from the
        noise grid — the noise is pure, so a fresh compute equals a
        cached read bit for bit — and publishes into the memo for the
        scalar short-block readers that follow.
        """
        cache = self.host._util_read_cache
        get = cache.get
        values = [get(t) for t in times_list]
        if None not in values:
            return np.asarray(values, dtype=np.float64)
        self.refresh()
        u = self._jittered_util(times)
        cache.update(zip(times_list, u.tolist()))
        return u

    def power_block(self, times: np.ndarray, times_list: list) -> np.ndarray:
        """Batched ground-truth wall power over an event-free interval.

        Replays :meth:`PhysicalHost.instantaneous_power_values` with the
        per-sample loop replaced by exact elementwise array operations;
        the only scalar remnants are ``u ** exponent`` (libm ``pow`` is not
        SIMD-exact), the rare transient evaluations, and the per-drift-
        segment blend, which all run per unique value rather than per
        sample.  Bit-identical to the scalar kernel — the cross-mode
        golden tests enforce it.
        """
        self.refresh()
        host = self.host
        n = times.shape[0]
        transients = host.power_model.transients
        trans = (
            np.asarray([transients.value(t) for t in times_list], dtype=np.float64)
            if transients.active_count > 0
            else None
        )
        u = self._jittered_util(times)
        # u ** exponent stays a scalar loop: libm pow only.
        exponent = self._exponent
        upow = np.asarray([x ** exponent for x in u.tolist()], dtype=np.float64)
        power = self._idle + (self._linear * u + self._curved * upow)
        power = power + self._mem_term
        power = power + self._nic_term
        power = power + self._interaction * u * self._mem
        if self._fan_steps:
            # fan accumulates in scalar step order; adding 0.0 where a
            # step is untriggered cannot change a (positive) sum.
            fan = np.zeros(n, dtype=np.float64)
            for threshold, watts in self._fan_steps:
                fan = fan + np.where(u >= threshold, watts, 0.0)
            power = power + fan
        if trans is not None:
            power = power + trans
        power = np.maximum(power, self._model_floor)
        power = self._idle + (power - self._idle) * self._thermal
        # Publish the jittered reads for co-located scalar readers.
        host._util_read_cache.update(zip(times_list, u.tolist()))
        if self._drift_sigma > 0.0:
            power = power + self._drift_values(times, n)
        return np.maximum(power, self._host_floor)

    def _drift_values(self, times: np.ndarray, n: int) -> np.ndarray:
        """Per-sample thermal drift via the shared (cur, prev)-pair memo.

        The drift quantum spans many samples, so the block decomposes
        into a handful of constant segments; each segment's blend is
        computed (or recalled) exactly as the scalar kernel does, through
        the same ``_drift_value_cache`` dict both paths share.
        """
        dq = self._drift_quantum
        cur = np.floor(times / dq).astype(np.int64)
        prv = np.floor((times - dq) / dq).astype(np.int64)
        pairs = self.host._drift_value_cache
        grid = self._drift_grid
        sigma = self._drift_sigma
        norm = self._drift_norm
        out = np.empty(n, dtype=np.float64)
        boundaries = np.flatnonzero((np.diff(cur) != 0) | (np.diff(prv) != 0)) + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), n]
        for start, end in zip(starts, ends):
            key = (int(cur[start]), int(prv[start]))
            drift = pairs.get(key)
            if drift is None:
                dcur_v = grid.value(key[0])
                dprv_v = grid.value(key[1])
                # ou_like_noise with blend=0.75 (exact binary floats).
                drift = sigma * (0.75 * dprv_v + 0.25 * dcur_v) / norm
                pairs[key] = drift
            out[start:end] = drift
        return out


# ----------------------------------------------------------------------
# VM kernel
# ----------------------------------------------------------------------
class VmKernel:
    """Vectorized per-VM CPU feature."""

    def __init__(
        self,
        vm,
        *,
        jitter_quantum: float,
        jitter_sigma_pct: float,
    ) -> None:
        self.vm = vm
        self._quantum = jitter_quantum
        self._sigma = jitter_sigma_pct
        self._alloc_key = f"vm:{vm.name}"
        # The blend constants ou_like_noise_values derives from blend=0.6.
        self._blend = 0.6
        self._one_minus = 1.0 - self._blend
        self._norm = math.sqrt(
            self._blend * self._blend + self._one_minus * self._one_minus
        )
        self._grid = NoiseTickGrid(vm._noise_seed, vm._vmcpu_noise_key)

    def cpu_percent_block(self, times: np.ndarray, times_list: list) -> np.ndarray:
        """Batched ``CPU(v,t)`` feature, bit-identical to the scalar loop."""
        vm = self.vm
        if not vm.running:
            return np.zeros(len(times_list), dtype=np.float64)
        base = vm._workload.cpu_fraction() * 100.0
        if vm.host is not None:
            base *= vm.host.cpu.allocation_fraction(self._alloc_key)
        q = self._quantum
        cur_ticks = np.floor(times / q).astype(np.int64)
        prev_ticks = np.floor((times - q) / q).astype(np.int64)
        cur, prv = self._grid.gather_pair(cur_ticks, prev_ticks)
        jitter = self._sigma * (self._blend * prv + self._one_minus * cur) / self._norm
        return np.minimum(np.maximum(base + jitter, 0.0), 100.0)


# ----------------------------------------------------------------------
# Retired names
# ----------------------------------------------------------------------
# The paper-campaign benchmark's span table (perfbench/spans.py) still
# lists these two entry points and requires every listed name to
# resolve.  They are per-run loops over the kernels above; nothing in the
# program calls them.
def power_block_bank(kernels: list[HostKernel], times_bank: np.ndarray) -> np.ndarray:
    """:meth:`HostKernel.power_block` per row of ``times_bank``."""
    return np.stack([k.power_block(t, t.tolist()) for k, t in zip(kernels, times_bank)])


def cpu_percent_block_bank(kernels: list[VmKernel], times_bank: np.ndarray) -> np.ndarray:
    """:meth:`VmKernel.cpu_percent_block` per row of ``times_bank``."""
    return np.stack(
        [k.cpu_percent_block(t, t.tolist()) for k, t in zip(kernels, times_bank)]
    )
