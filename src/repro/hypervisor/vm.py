"""Paravirtualised virtual machine with a lifecycle state machine.

The VM is the third actor of the paper's model (alongside source and
target host).  It exposes the two per-VM features of Section IV-B:

* ``CPU(v,t)`` — the VM's CPU utilisation in percent of its own vCPU
  allocation (0 when idle or suspended);
* ``DR(v,t)`` — the memory dirtying ratio in percent (0 when idle or
  suspended), delegated to :class:`~repro.hypervisor.memory.VmMemory`.

State transitions are strict: migrating code must suspend/resume through
the hypervisor, and invalid transitions raise
:class:`~repro.errors.VMStateError` — mirroring how ``xl`` refuses
operations on domains in the wrong state.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.errors import VMStateError
from repro.hypervisor.memory import VmMemory
from repro.simulator.kernels import VmKernel
from repro.simulator.noise import NoiseStream, ou_like_noise
from repro.workloads.base import Workload
from repro.workloads.idle import IdleWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.host import PhysicalHost

__all__ = ["VmState", "VirtualMachine"]

#: Correlation quantum for per-VM CPU jitter (same timescale as the host's).
_JITTER_QUANTUM_S = 0.5
#: Jitter sigma for the per-VM CPU feature, in percent points.
_VM_CPU_JITTER_PCT = 1.1


class VmState(enum.Enum):
    """Lifecycle states of a guest domain."""

    DEFINED = "defined"          # created, not yet started
    RUNNING = "running"
    SUSPENDED = "suspended"      # paused with state preserved
    DESTROYED = "destroyed"


#: Legal state transitions (from -> allowed targets).
_TRANSITIONS: dict[VmState, frozenset[VmState]] = {
    VmState.DEFINED: frozenset({VmState.RUNNING, VmState.DESTROYED}),
    VmState.RUNNING: frozenset({VmState.SUSPENDED, VmState.DESTROYED}),
    VmState.SUSPENDED: frozenset({VmState.RUNNING, VmState.DESTROYED}),
    VmState.DESTROYED: frozenset(),
}


class VirtualMachine:
    """A paravirtualised guest.

    Parameters
    ----------
    name:
        Unique domain name.
    vcpus:
        Number of virtual CPUs.
    ram_mb:
        Guest memory size in MiB.
    workload:
        Behavioural workload model; defaults to an idle guest.
    instance_type:
        Catalog label (``load-cpu`` …) carried for reports.
    noise_seed:
        Seed of the VM's deterministic CPU-feature jitter.
    """

    def __init__(
        self,
        name: str,
        vcpus: int,
        ram_mb: int,
        workload: Optional[Workload] = None,
        instance_type: str = "custom",
        noise_seed: int = 0,
    ) -> None:
        if vcpus <= 0:
            raise VMStateError(f"vcpus must be positive, got {vcpus!r}")
        self.name = name
        self.vcpus = int(vcpus)
        self.instance_type = instance_type
        self.memory = VmMemory(ram_mb)
        self.state = VmState.DEFINED
        self.host: Optional["PhysicalHost"] = None
        self._workload: Workload = workload or IdleWorkload()
        self._noise_seed = int(noise_seed)
        #: The CPU-feature jitter process of the batched reads.
        self.cpu_noise = NoiseStream(self._noise_seed, f"vmcpu:{name}", _JITTER_QUANTUM_S)
        #: The batched feature reads of this VM (repro.simulator.kernels).
        self.kernel = VmKernel(self, jitter_sigma_pct=_VM_CPU_JITTER_PCT)
        self._sync_dirty_process()

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    @property
    def workload(self) -> Workload:
        """The attached behavioural workload."""
        return self._workload

    def set_workload(self, workload: Workload) -> None:
        """Replace the workload (takes effect immediately if running)."""
        self._workload = workload
        self._sync_dirty_process()

    def _sync_dirty_process(self) -> None:
        if self.state is VmState.RUNNING:
            self.memory.set_dirty_process(
                self._workload.dirty_page_rate(),
                self._workload.working_set_fraction(),
            )
        else:
            self.memory.stop_dirty_process()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _transition(self, target: VmState) -> None:
        allowed = _TRANSITIONS[self.state]
        if target not in allowed:
            raise VMStateError(
                f"VM {self.name!r}: illegal transition {self.state.value} -> {target.value}"
            )
        self.state = target
        self._sync_dirty_process()

    def mark_running(self) -> None:
        """Enter RUNNING (hypervisor-internal; use the toolstack API)."""
        self._transition(VmState.RUNNING)

    def mark_suspended(self) -> None:
        """Enter SUSPENDED (hypervisor-internal)."""
        self._transition(VmState.SUSPENDED)

    def mark_destroyed(self) -> None:
        """Enter DESTROYED (hypervisor-internal)."""
        self._transition(VmState.DESTROYED)

    @property
    def running(self) -> bool:
        """Whether the guest is executing."""
        return self.state is VmState.RUNNING

    # ------------------------------------------------------------------
    # Resource demands (what the hypervisor registers on the host)
    # ------------------------------------------------------------------
    def cpu_demand_threads(self) -> float:
        """Demand on the host in hardware threads (0 unless running)."""
        if not self.running:
            return 0.0
        return self.vcpus * self._workload.cpu_fraction()

    def memory_activity(self) -> float:
        """Memory-bus activity contribution (0 unless running)."""
        if not self.running:
            return 0.0
        return self._workload.memory_activity_fraction()

    def nic_demand_bps(self) -> tuple[float, float]:
        """(tx, rx) guest traffic in bytes/s (0 unless running)."""
        if not self.running:
            return (0.0, 0.0)
        return (self._workload.nic_tx_bps(), self._workload.nic_rx_bps())

    # ------------------------------------------------------------------
    # Model features (Section IV-B)
    # ------------------------------------------------------------------
    def cpu_percent(self, t: Optional[float] = None) -> float:
        """``CPU(v,t)``: utilisation in percent of the VM's allocation.

        0 when idle or suspended (paper Section IV-B).  Under host
        multiplexing the credit scheduler shrinks the VM's share, which is
        reflected through the host allocation fraction when available.
        """
        if not self.running:
            return 0.0
        base = self._workload.cpu_fraction() * 100.0
        if self.host is not None:
            base *= self.host.cpu.allocation_fraction(f"vm:{self.name}")
        if t is None:
            return min(base, 100.0)
        jitter = ou_like_noise(
            self._noise_seed, f"vmcpu:{self.name}", t, _JITTER_QUANTUM_S,
            sigma=_VM_CPU_JITTER_PCT,
        )
        return float(min(max(base + jitter, 0.0), 100.0))

    def cpu_percent_values(self, times: list[float]) -> list[float]:
        """Batched :meth:`cpu_percent` over ascending times of one
        event-free interval (plain floats; see
        :class:`~repro.simulator.kernels.VmKernel`)."""
        return self.kernel.cpu_percent_block(times)

    def dirtying_ratio_percent(self) -> float:
        """``DR(v,t)``: steady-state dirtying ratio in percent (Eq. 1)."""
        if not self.running:
            return 0.0
        return self.memory.dirtying_ratio_percent()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.host.name if self.host is not None else "unplaced"
        return (
            f"<VM {self.name!r} {self.instance_type} {self.vcpus}vcpu "
            f"{self.memory.ram_mb}MB {self.state.value} on {where}>"
        )
