"""The experiment families of Table IIa, expanded into scenarios.

================  =================  ==============  ===================
experiment        source host        target host     migrating VM
================  =================  ==============  ===================
CPULOAD-SOURCE    [0–100] % CPU      idle            migrating-cpu
CPULOAD-TARGET    migrating VM only  [0–100] % CPU   migrating-cpu
MEMLOAD-VM        idle               idle            migrating-mem 5–95 %
MEMLOAD-SOURCE    [0–100] % CPU      idle            migrating-mem 95 %
MEMLOAD-TARGET    migrating-mem src  [0–100] % CPU   migrating-mem 95 %
================  =================  ==============  ===================

Host CPU load is generated with ``load-cpu`` instances; the paper's load
levels map to **0, 1, 3, 5, 7 and 8** load VMs (the figures' legend):
with the 4-vCPU migrating VM included, 32 threads make those 12.5 / 25 /
50 / 75 / 100 / 112.5 % utilisation — the last one multiplexed.  CPULOAD
runs both migration kinds; MEMLOAD runs live only, "since non-live
migrations have DR(v,t) = 0" (Section V-A2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.errors import ConfigurationError

__all__ = [
    "LOAD_VM_COUNTS",
    "DIRTY_PERCENTS",
    "MigrationScenario",
    "cpuload_source_scenarios",
    "cpuload_target_scenarios",
    "memload_vm_scenarios",
    "memload_source_scenarios",
    "memload_target_scenarios",
    "all_scenarios",
]

#: Load-VM counts of the figures' legends (0 … 8 with 8 = multiplexing).
LOAD_VM_COUNTS: tuple[int, ...] = (0, 1, 3, 5, 7, 8)

#: Dirty-percent sweep of Fig. 5.
DIRTY_PERCENTS: tuple[float, ...] = (5.0, 15.0, 35.0, 55.0, 75.0, 95.0)


@dataclass(frozen=True)
class MigrationScenario:
    """One concrete migration configuration to run and measure.

    Parameters
    ----------
    experiment:
        Family name (``CPULOAD-SOURCE`` … ``MEMLOAD-TARGET``).
    label:
        Unique human-readable identifier (used in splits and reports).
    live:
        Migration kind.
    load_vm_count:
        Number of ``load-cpu`` guests generating background load.
    load_on:
        Which host carries the background load.
    dirty_percent:
        MEMLOAD dirty ratio; ``None`` selects the ``migrating-cpu``
        instance, a value selects ``migrating-mem``.
    family:
        Machine pair (``"m"`` → m01–m02, ``"o"`` → o1–o2).
    """

    experiment: str
    label: str
    live: bool
    load_vm_count: int = 0
    load_on: Literal["source", "target"] = "source"
    dirty_percent: Optional[float] = None
    family: str = "m"

    def __post_init__(self) -> None:
        if self.load_vm_count < 0:
            raise ConfigurationError("load_vm_count must be non-negative")
        if self.load_on not in ("source", "target"):
            raise ConfigurationError(f"load_on must be source/target, got {self.load_on!r}")
        if self.dirty_percent is not None and not 0 <= self.dirty_percent <= 100:
            raise ConfigurationError("dirty_percent must be in [0, 100]")
        if self.family not in ("m", "o"):
            raise ConfigurationError(f"family must be 'm' or 'o', got {self.family!r}")
        if self.dirty_percent is not None and not self.live:
            raise ConfigurationError(
                "MEMLOAD scenarios are live-only (non-live has DR = 0)"
            )

    @property
    def migrating_instance(self) -> str:
        """Instance type of the migrating guest (Table IIb)."""
        return "migrating-cpu" if self.dirty_percent is None else "migrating-mem"

    @property
    def kind_name(self) -> str:
        """``live`` / ``non-live`` for reports."""
        return "live" if self.live else "non-live"


def _kinds(live: Optional[bool]) -> tuple[bool, ...]:
    if live is None:
        return (False, True)
    return (bool(live),)


def cpuload_source_scenarios(
    family: str = "m", live: Optional[bool] = None
) -> list[MigrationScenario]:
    """CPULOAD-SOURCE: sweep source load, idle target, migrating-cpu VM."""
    return [
        MigrationScenario(
            experiment="CPULOAD-SOURCE",
            label=f"cpuload-source/{'live' if k else 'nonlive'}/{n}vm/{family}",
            live=k,
            load_vm_count=n,
            load_on="source",
            family=family,
        )
        for k in _kinds(live)
        for n in LOAD_VM_COUNTS
    ]


def cpuload_target_scenarios(
    family: str = "m", live: Optional[bool] = None
) -> list[MigrationScenario]:
    """CPULOAD-TARGET: source runs the migrating VM only, sweep target load."""
    return [
        MigrationScenario(
            experiment="CPULOAD-TARGET",
            label=f"cpuload-target/{'live' if k else 'nonlive'}/{n}vm/{family}",
            live=k,
            load_vm_count=n,
            load_on="target",
            family=family,
        )
        for k in _kinds(live)
        for n in LOAD_VM_COUNTS
    ]


def memload_vm_scenarios(family: str = "m") -> list[MigrationScenario]:
    """MEMLOAD-VM: idle hosts, sweep the dirtying percentage (live only)."""
    return [
        MigrationScenario(
            experiment="MEMLOAD-VM",
            label=f"memload-vm/live/dr{int(pct)}/{family}",
            live=True,
            load_vm_count=0,
            dirty_percent=pct,
            family=family,
        )
        for pct in DIRTY_PERCENTS
    ]


def memload_source_scenarios(
    family: str = "m", dirty_percent: float = 95.0
) -> list[MigrationScenario]:
    """MEMLOAD-SOURCE: CPU load on source, migrating-mem at a fixed DR."""
    return [
        MigrationScenario(
            experiment="MEMLOAD-SOURCE",
            label=f"memload-source/live/{n}vm/{family}",
            live=True,
            load_vm_count=n,
            load_on="source",
            dirty_percent=dirty_percent,
            family=family,
        )
        for n in LOAD_VM_COUNTS
    ]


def memload_target_scenarios(
    family: str = "m", dirty_percent: float = 95.0
) -> list[MigrationScenario]:
    """MEMLOAD-TARGET: CPU load on target, migrating-mem at a fixed DR."""
    return [
        MigrationScenario(
            experiment="MEMLOAD-TARGET",
            label=f"memload-target/live/{n}vm/{family}",
            live=True,
            load_vm_count=n,
            load_on="target",
            dirty_percent=dirty_percent,
            family=family,
        )
        for n in LOAD_VM_COUNTS
    ]


def all_scenarios(family: str = "m") -> list[MigrationScenario]:
    """Every scenario of Table IIa for one machine pair (42 in total)."""
    return (
        cpuload_source_scenarios(family)
        + cpuload_target_scenarios(family)
        + memload_vm_scenarios(family)
        + memload_source_scenarios(family)
        + memload_target_scenarios(family)
    )
