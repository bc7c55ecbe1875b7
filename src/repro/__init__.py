"""WAVM3 — a workload-aware energy model for virtual machine migration.

A full reproduction of De Maio, Kecskemeti & Prodan, *"A Workload-Aware
Energy Model for Virtual Machine Migration"* (IEEE CLUSTER 2015):

* the **WAVM3** phase-based energy model and the HUANG / LIU / STRUNK
  comparison models (:mod:`repro.models`);
* the regression pipeline with the paper's training protocol and the
  C1→C2 cross-testbed bias correction (:mod:`repro.regression`);
* a discrete-event **Xen testbed simulator** standing in for the paper's
  physical infrastructure — hosts, credit-scheduler CPU accounting, the
  live pre-copy and non-live migration engines, Voltech power meters and
  dstat monitoring (:mod:`repro.simulator`, :mod:`repro.cluster`,
  :mod:`repro.hypervisor`, :mod:`repro.workloads`, :mod:`repro.telemetry`);
* the five experiment families of Table II and generators for every table
  and figure of the evaluation (:mod:`repro.experiments`,
  :mod:`repro.analysis`).

Quickstart
----------
>>> from repro import quick_migration_energy
>>> result = quick_migration_energy(live=True, seed=7)
>>> result.timeline.complete
True
"""

from repro._version import __version__
from repro.errors import ReproError

__all__ = [
    "__version__",
    "ReproError",
    "quick_migration_energy",
]


def quick_migration_energy(live: bool = True, seed: int = 0, family: str = "m"):
    """Run one instrumented migration on a default testbed.

    A convenience wrapper used by the README quickstart: builds the m01–m02
    (or o1–o2) testbed, boots a 4 GB ``migrating-cpu`` guest, migrates it,
    and returns the :class:`~repro.experiments.results.RunResult` with
    power traces, the phase timeline and per-phase energies.

    Parameters
    ----------
    live:
        Live (pre-copy) or non-live (suspend/resume) migration.
    seed:
        Master seed; every byte of the result is reproducible from it.
    family:
        Machine pair to use (``"m"`` or ``"o"``).
    """
    from repro.experiments.design import MigrationScenario
    from repro.experiments.runner import ScenarioRunner

    scenario = MigrationScenario(
        experiment="quickstart",
        label="quickstart",
        live=live,
        load_vm_count=0,
        dirty_percent=None,
        family=family,
    )
    return ScenarioRunner(seed=seed).run_once(scenario, run_index=0)
