"""Interval kernels: one host's or one VM's reads over an event-free block.

The batched telemetry path (``telemetry="batched"``) hands each instrument
the sample times of one event-free interval at once.  Between events the
simulation state is constant, so the kernels here hoist everything but the
per-sample noise out of the sample loop: the host's static power envelope
and its live utilisation/memory/NIC terms (re-derived only when the
owners' version counters move).  The noise comes from the owner's
:class:`~repro.simulator.noise.NoiseStream` objects, one per jitter
process, which hash each tick once for every reader of the owner.

Each kernel is a plain scalar loop.  On the paper campaign a block holds
12.9 samples on average and at most 132 (an engine run across a non-live
migration's transfer).

**Bit-identity discipline.** Every read equals the event-mode read at the
same instant bit for bit (the cross-path golden tests assert byte-identical
campaign samples JSON): the loops replay the scalar methods' operation
order, and the streams replay :func:`~repro.simulator.noise.ou_like_noise`.
A read is a pure function of the owner's state and its streams, so
co-located readers of one instant (meter, dstat, feature recorder) each
compute it and agree.
"""

from __future__ import annotations

__all__ = ["HostKernel", "VmKernel"]


# ----------------------------------------------------------------------
# Host kernel
# ----------------------------------------------------------------------
class HostKernel:
    """Ground-truth power and jittered CPU reads of one host.

    The static power envelope is hoisted once from
    :meth:`~repro.cluster.power.PowerModelParams.kernel_constants`; the
    live fields are refreshed through the owners' version counters.  The
    noise comes from the host's ``cpu_noise`` and ``drift_noise`` streams.
    """

    def __init__(self, host, *, cpu_jitter_sigma: float) -> None:
        self.host = host
        (
            self._idle,
            self._linear,
            self._curved,
            self._exponent,
            self._interaction,
            self._model_floor,
            fan_thresholds,
            fan_watts,
            self._drift_sigma,
        ) = host.power_model.params.kernel_constants()
        self._host_floor = 0.3 * self._idle
        self._thermal = host._thermal_factor
        self._fan_steps = tuple(zip(fan_thresholds, fan_watts))
        self._cpu_jitter_sigma = cpu_jitter_sigma
        self._cpu_noise = host.cpu_noise
        self._drift_noise = host.drift_noise
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

    # ------------------------------------------------------------------
    def util_block(self, times: list[float]) -> list[float]:
        """Jittered CPU utilisation in [0, 1] at each of ``times``.

        Equals :meth:`PhysicalHost.cpu_utilisation_fraction` per sample.
        """
        self.refresh()
        base = self._base
        out = []
        for jitter in self._cpu_noise.values(times, self._jitter_sigma):
            u = base + jitter
            # min(max(u, 0), 1) unrolled; ties keep the same float anyway
            out.append(0.0 if u < 0.0 else 1.0 if u > 1.0 else u)
        return out

    def power_block(self, times: list[float]) -> list[float]:
        """Ground-truth wall power at each of ``times`` (ascending).

        Replays :meth:`PhysicalHost.instantaneous_power` per sample in its
        exact operation order, with the interval constants hoisted and
        the CPU-jitter and thermal-drift noise read from the host's
        streams.
        """
        self.refresh()
        live = self.host.power_model.transients.live(times[0])
        base = self._base
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
        jitters = self._cpu_noise.values(times, self._jitter_sigma)
        drifts = (
            self._drift_noise.values(times, drift_sigma)
            if drift_sigma > 0
            else [0.0] * len(times)  # unread: no drift term
        )
        out = []
        for t, jitter, drift in zip(times, jitters, drifts):
            # cpu_utilisation_fraction(t): base + OU hash jitter, clamped
            u = base + jitter
            if u < 0.0:
                u = 0.0
            elif u > 1.0:
                u = 1.0
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
            if live:
                # TransientPool.value(t) unrolled over the transients
                # live at the block's start: same additions, same order.
                extra = 0.0
                for item in live:
                    if t <= item.t0 + item.duration:
                        extra += item.value(t)
                power = power + extra
            if power < model_floor:
                power = model_floor
            # host envelope: thermal scaling, drift, PSU floor
            power = idle + (power - idle) * thermal
            if drift_sigma > 0:
                power = power + drift
            out.append(power if power > host_floor else host_floor)
        return out


# ----------------------------------------------------------------------
# VM kernel
# ----------------------------------------------------------------------
class VmKernel:
    """The ``CPU(v,t)`` feature of one VM."""

    def __init__(self, vm, *, jitter_sigma_pct: float) -> None:
        self.vm = vm
        self._sigma = jitter_sigma_pct
        self._alloc_key = f"vm:{vm.name}"
        self._noise = vm.cpu_noise

    def cpu_percent_block(self, times: list[float]) -> list[float]:
        """:meth:`VirtualMachine.cpu_percent` at each of ``times`` (ascending)."""
        vm = self.vm
        if not vm.running:
            return [0.0] * len(times)
        base = vm._workload.cpu_fraction() * 100.0
        if vm.host is not None:
            base *= vm.host.cpu.allocation_fraction(self._alloc_key)
        return [
            float(min(max(base + jitter, 0.0), 100.0))
            for jitter in self._noise.values(times, self._sigma)
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
