"""Interval kernels: one host's or one VM's reads over an event-free block.

The batched telemetry path (``telemetry="batched"``) hands each instrument
the sample times of one event-free interval at once.  Between events the
simulation state is constant, so the kernels here hoist everything but the
per-sample noise out of the sample loop: the host's static power envelope,
its live utilisation/memory/NIC terms (re-derived only when the owners'
version counters move), and the noise draws, which a block memoises for
its whole tick range (:func:`~repro.simulator.noise.memoise_ticks`) before
it loops.

Each kernel is a plain scalar loop.  On the paper campaign a block holds
20.1 samples on average and at most 240 (a post-migration stabilisation
wait that runs out its 120 s budget, which the runner advances in one
engine call).

**Bit-identity discipline.** Every read equals the event-mode read at the
same instant bit for bit (the cross-path golden tests assert byte-identical
campaign samples JSON): the loops replay the scalar methods' operation
order, and the memoised draws are the same pure ``(seed, key, tick)``
hashes.
"""

from __future__ import annotations

import math

from repro.simulator.noise import memoise_ticks

__all__ = ["HostKernel", "VmKernel"]

#: The OU blend of the CPU jitter processes (``ou_like_noise``'s default).
_BLEND = 0.6
_ONE_MINUS = 1.0 - _BLEND
_NORM = math.sqrt(_BLEND * _BLEND + _ONE_MINUS * _ONE_MINUS)


# ----------------------------------------------------------------------
# Host kernel
# ----------------------------------------------------------------------
class HostKernel:
    """Ground-truth power and jittered CPU reads of one host.

    The static power envelope is hoisted once from
    :meth:`~repro.cluster.power.PowerModelParams.kernel_constants`; the
    live fields are refreshed through the owners' version counters.  The
    noise draws live in the host's per-key tick memos, shared by every
    batched reader of the host (meter, dstat, feature recorder).
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
            self._idle,
            self._linear,
            self._curved,
            self._exponent,
            _memory_w,
            _nic_w,
            self._interaction,
            self._model_floor,
            fan_thresholds,
            fan_watts,
            self._drift_sigma,
            self._drift_quantum,
        ) = host.power_model.params.kernel_constants()
        self._host_floor = 0.3 * self._idle
        self._thermal = host._thermal_factor
        self._fan_steps = tuple(zip(fan_thresholds, fan_watts))
        self._quantum = jitter_quantum
        self._cpu_jitter_sigma = cpu_jitter_sigma
        self._drift_norm = drift_norm
        self._seed = host._noise_seed
        self._cpu_key = host._cpu_noise_key
        self._drift_key = host._drift_noise_key
        self._cpu_ticks = host._cpu_tick_cache
        self._drift_ticks = host._drift_tick_cache
        self._reads = host._util_read_cache
        # Live fields and the owner versions they were derived at.
        self._base = 0.0
        self._jitter_sigma = 0.0
        self._mem = 0.0
        self._mem_term = 0.0
        self._nic_term = 0.0
        self.cpu_version = -1
        self.memory_version = -1
        self.flows_version = -1

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Refresh the live fields through the version counters.

        CPU base utilisation, the derived jitter sigma and the memory/NIC
        power terms change only on events; each is re-derived (by the
        exact expressions of the scalar reads) only when its owning
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

    def _memoise_cpu(self, times: list[float]) -> None:
        """Hash the CPU-jitter ticks of an ascending block the memo lacks."""
        q = self._quantum
        memoise_ticks(
            self._seed, self._cpu_key, self._cpu_ticks,
            math.floor((times[0] - q) / q), math.floor(times[-1] / q),
        )

    # ------------------------------------------------------------------
    def util_block(self, times: list[float]) -> list[float]:
        """Jittered CPU utilisation in [0, 1] at each of ``times``.

        Equals :meth:`PhysicalHost.cpu_utilisation_fraction` per sample.
        Timestamps a co-located instrument already read in this interval
        (the power meter samples first) come from the host's
        per-timestamp read memo; the rest are computed and published
        there for the readers that follow.
        """
        reads = self._reads
        get = reads.get
        values = [get(t) for t in times]
        if None not in values:
            return values
        self.refresh()
        self._memoise_cpu(times)
        ticks = self._cpu_ticks
        base = self._base
        sigma = self._jitter_sigma
        q = self._quantum
        floor = math.floor
        for i, value in enumerate(values):
            if value is None:
                t = times[i]
                u = base + sigma * (
                    _BLEND * ticks[floor((t - q) / q)] + _ONE_MINUS * ticks[floor(t / q)]
                ) / _NORM
                # min(max(u, 0), 1) unrolled; ties keep the same float anyway
                if u < 0.0:
                    u = 0.0
                elif u > 1.0:
                    u = 1.0
                reads[t] = u
                values[i] = u
        return values

    def power_block(self, times: list[float], reads: dict | None = None) -> list[float]:
        """Ground-truth wall power at each of ``times`` (ascending).

        Replays :meth:`PhysicalHost.instantaneous_power` per sample in its
        exact operation order, with the interval constants hoisted and
        the CPU-jitter and thermal-drift draws memoised; publishes each
        jittered CPU read into ``reads`` (default: the host's
        per-timestamp read memo).
        """
        self.refresh()
        self._memoise_cpu(times)
        transients = self.host.power_model.transients
        has_transients = transients.active_count > 0
        cpu_ticks = self._cpu_ticks
        if reads is None:
            reads = self._reads
        base = self._base
        jitter_sigma = self._jitter_sigma
        q = self._quantum
        idle = self._idle
        linear = self._linear
        curved = self._curved
        exponent = self._exponent
        mem = self._mem
        mem_term = self._mem_term
        nic_term = self._nic_term
        interaction = self._interaction
        fan_steps = self._fan_steps
        model_floor = self._model_floor
        thermal = self._thermal
        host_floor = self._host_floor
        drift_sigma = self._drift_sigma
        floor = math.floor
        if drift_sigma > 0:
            dq = self._drift_quantum
            drift_ticks = self._drift_ticks
            drift_norm = self._drift_norm
            memoise_ticks(
                self._seed, self._drift_key, drift_ticks,
                floor((times[0] - dq) / dq), floor(times[-1] / dq),
            )
            last_pair = None
        out = []
        for t in times:
            # cpu_utilisation_fraction(t): base + OU hash jitter, clamped
            u = base + jitter_sigma * (
                _BLEND * cpu_ticks[floor((t - q) / q)] + _ONE_MINUS * cpu_ticks[floor(t / q)]
            ) / _NORM
            if u < 0.0:
                u = 0.0
            elif u > 1.0:
                u = 1.0
            reads[t] = u
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
                pair = (floor(t / dq), floor((t - dq) / dq))
                if pair != last_pair:
                    # ou_like_noise with blend=0.75 (0.75/0.25 are exact
                    # binary floats, so the literals match 1.0 - blend)
                    drift = drift_sigma * (
                        0.75 * drift_ticks[pair[1]] + 0.25 * drift_ticks[pair[0]]
                    ) / drift_norm
                    last_pair = pair
                power = power + drift
            out.append(power if power > host_floor else host_floor)
        return out

    def power_ahead(self, times: list[float]) -> tuple[list[float], list[float]]:
        """:meth:`power_block` over a block the simulator has not reached yet.

        Returns the powers and the jittered CPU reads at ``times`` and
        leaves behind nothing a later read could see: the reads are not
        published into the host's read memo (a state change before
        ``times`` are reached would make them stale), and the transient
        pool's pruning is undone (it depends on the order of reads).
        :meth:`deliver_ahead` performs both effects once the simulator
        reaches the samples.
        """
        transients = self.host.power_model.transients
        items = transients.snapshot()
        reads: dict[float, float] = {}
        try:
            power = self.power_block(times, reads)
        finally:
            transients.restore(items)
        return power, list(reads.values())

    def deliver_ahead(self, times: list[float], utils: list[float]) -> None:
        """The side effects :meth:`power_block` would have had on ``times``.

        ``utils`` are the matching reads from :meth:`power_ahead`.
        """
        self._reads.update(zip(times, utils))
        transients = self.host.power_model.transients
        if transients.active_count:
            # Prunes what the block's reads, the last one included, would.
            transients.value(times[-1])


# ----------------------------------------------------------------------
# VM kernel
# ----------------------------------------------------------------------
class VmKernel:
    """The ``CPU(v,t)`` feature of one VM."""

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
        self._seed = vm._noise_seed
        self._key = vm._vmcpu_noise_key
        self._ticks = vm._noise_cache

    def cpu_percent_block(self, times: list[float]) -> list[float]:
        """:meth:`VirtualMachine.cpu_percent` at each of ``times`` (ascending)."""
        vm = self.vm
        if not vm.running:
            return [0.0] * len(times)
        base = vm._workload.cpu_fraction() * 100.0
        if vm.host is not None:
            base *= vm.host.cpu.allocation_fraction(self._alloc_key)
        q = self._quantum
        ticks = self._ticks
        floor = math.floor
        memoise_ticks(
            self._seed, self._key, ticks, floor((times[0] - q) / q), floor(times[-1] / q)
        )
        sigma = self._sigma
        return [
            float(min(max(base + sigma * (
                _BLEND * ticks[floor((t - q) / q)] + _ONE_MINUS * ticks[floor(t / q)]
            ) / _NORM, 0.0), 100.0))
            for t in times
        ]


# ----------------------------------------------------------------------
# Retired names
# ----------------------------------------------------------------------
# The paper-campaign benchmark's span table (perfbench/spans.py) still
# lists these two entry points, and its tracer test and the CI
# perf-smoke step expect every listed name to resolve.  They are per-run
# loops over the kernels above; nothing in the program calls them.
def power_block_bank(kernels: list[HostKernel], times_bank: list) -> list:
    """:meth:`HostKernel.power_block` per row of ``times_bank``."""
    return [k.power_block(list(t)) for k, t in zip(kernels, times_bank)]


def cpu_percent_block_bank(kernels: list[VmKernel], times_bank: list) -> list:
    """:meth:`VmKernel.cpu_percent_block` per row of ``times_bank``."""
    return [k.cpu_percent_block(list(t)) for k, t in zip(kernels, times_bank)]
