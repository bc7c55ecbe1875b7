"""CPU demand accounting with proportional sharing under overcommit.

Xen's credit scheduler gives each runnable vCPU a fair share of the
physical threads.  For the energy model only the *aggregate* utilisation
matters (Eq. 2 of the paper sums VMM, per-VM and migration CPU), so the
accountant tracks named demand entries in units of hardware threads:

* when total demand fits the capacity, every entry is allocated exactly
  its demand (work-conserving, no contention);
* when total demand exceeds capacity ("multiplexing", the paper's 8-VM
  case) allocations shrink proportionally so the host pins at 100 %.

That pinning is what makes the 8-VM power trace flat in Fig. 3a: power is
proportional to utilisation, and utilisation cannot exceed the hardware
limit.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import CapacityError, ConfigurationError

__all__ = ["CpuAccountant"]


class CpuAccountant:
    """Tracks named CPU demand entries against a thread capacity.

    Parameters
    ----------
    capacity_threads:
        Number of hardware threads of the host (e.g. 32 for m01).

    Examples
    --------
    >>> cpu = CpuAccountant(32)
    >>> cpu.set_demand("vm:a", 4.0)
    >>> cpu.set_demand("vm:b", 30.0)
    >>> cpu.multiplexing
    True
    >>> round(cpu.allocation("vm:a"), 4)  # 4/34 of 32 threads
    3.7647
    >>> cpu.utilisation_fraction()
    1.0
    """

    def __init__(self, capacity_threads: float) -> None:
        if capacity_threads <= 0:
            raise ConfigurationError(
                f"capacity_threads must be positive, got {capacity_threads!r}"
            )
        self._capacity = float(capacity_threads)
        self._demands: dict[str, float] = {}
        # Demand-table version, bumped on every mutation: aggregate reads
        # memoise against it (telemetry reads aggregates per sample, the
        # table only changes on simulation events).  The cached value is
        # always produced by the same summation expression, so memoised
        # and fresh reads are bit-identical.
        self._version = 0
        self._total_version = -1
        self._total_cache = 0.0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def set_demand(self, key: str, threads: float) -> None:
        """Register or update the demand of component ``key`` in threads.

        A demand of zero keeps the entry registered (useful for components
        that fluctuate); use :meth:`remove` to deregister.
        """
        if threads < 0:
            raise CapacityError(f"demand must be non-negative, got {threads!r} for {key!r}")
        self._demands[key] = float(threads)
        self._version += 1

    def remove(self, key: str) -> None:
        """Deregister a component; missing keys are ignored."""
        self._demands.pop(key, None)
        self._version += 1

    def demand(self, key: str) -> float:
        """Registered demand of ``key`` (0 if unregistered)."""
        return self._demands.get(key, 0.0)

    def keys(self) -> Iterator[str]:
        """Iterate over registered component keys."""
        return iter(tuple(self._demands))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def capacity_threads(self) -> float:
        """Hardware thread capacity."""
        return self._capacity

    def total_demand(self) -> float:
        """Sum of all registered demands in threads (may exceed capacity)."""
        if self._total_version != self._version:
            self._total_cache = sum(self._demands.values())
            self._total_version = self._version
        return self._total_cache

    def total_demand_excluding(self, *keys: str) -> float:
        """Total demand ignoring the listed keys (used by the network model
        to compute the CPU headroom left for the migration daemon)."""
        excluded = set(keys)
        return sum(v for k, v in self._demands.items() if k not in excluded)

    @property
    def multiplexing(self) -> bool:
        """Whether demand exceeds hardware capacity (paper's 8-VM case)."""
        return self.total_demand() > self._capacity + 1e-12

    def utilisation_fraction(self) -> float:
        """Aggregate host utilisation in [0, 1] (Eq. 2, clamped at 1)."""
        return min(self.total_demand(), self._capacity) / self._capacity

    def utilisation_percent(self) -> float:
        """Aggregate host utilisation in percent [0, 100]."""
        return self.utilisation_fraction() * 100.0

    def headroom_threads(self) -> float:
        """Unallocated threads (0 under multiplexing)."""
        return max(0.0, self._capacity - self.total_demand())

    # ------------------------------------------------------------------
    # Proportional sharing
    # ------------------------------------------------------------------
    def allocation(self, key: str) -> float:
        """Threads actually granted to ``key`` under proportional sharing."""
        demand = self._demands.get(key, 0.0)
        total = self.total_demand()
        if total <= self._capacity or total == 0.0:
            return demand
        return demand * self._capacity / total

    def allocation_fraction(self, key: str) -> float:
        """Granted share of ``key``'s own demand, in [0, 1].

        1.0 when the host is not overcommitted; below 1.0 under
        multiplexing (every entry is slowed down equally).
        """
        demand = self._demands.get(key, 0.0)
        if demand == 0.0:
            return 1.0
        return self.allocation(key) / demand

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CpuAccountant {self.total_demand():.2f}/{self._capacity:.0f} threads, "
            f"{len(self._demands)} entries>"
        )
