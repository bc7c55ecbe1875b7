"""Experiment harness (subsystem S9) — Section V of the paper.

* :mod:`repro.experiments.instances` — the VM instance catalog of
  Table IIb (``load-cpu``, ``migrating-cpu``, ``migrating-mem``, dom-0);
* :mod:`repro.experiments.testbed` — builds the instrumented two-host
  testbeds of Table IIc (m01–m02 and o1–o2 with their switches/meters);
* :mod:`repro.experiments.design` — the experiment families of Table IIa
  (CPULOAD-SOURCE/-TARGET, MEMLOAD-VM/-SOURCE/-TARGET) expanded into
  concrete migration scenarios;
* :mod:`repro.experiments.runner` — executes scenarios with the paper's
  measurement protocol (stabilise → migrate → stabilise; repeat until the
  run-variance delta drops under 10 %, at least ten runs);
* :mod:`repro.experiments.executor` — fans campaign runs out across
  pluggable execution backends (serial / process pool / queue) in waves
  of one task per contiguous span of missing runs, and caches run
  results on disk, bit-identical to the serial path (see
  ``docs/parallel_campaigns.md``);
* :mod:`repro.experiments.queue_backend` — the distributed backend: a
  file-based work queue over a shared spool directory, served by any
  number of ``campaign-worker`` processes depositing into one shared
  run cache;
* :mod:`repro.experiments.faults` — the campaign fault-tolerance layer:
  failure taxonomy and ledger (``wavm3-failure/1``), retry budgets with
  capped deterministic backoff, quarantine semantics and run watchdogs
  (see ``docs/robustness.md``);
* :mod:`repro.experiments.chaos` — the deterministic chaos harness:
  seeded fault injection at named execution seams, for drills and the
  chaos soak tests;
* :mod:`repro.experiments.results` — run/scenario/experiment result
  containers and the conversion to model samples.

The package re-exports only the campaign-design and serial-execution
names below.  The executor, the queue backend, the fault layer and the
chaos harness are imported from their own modules, so a process that
only runs scenarios never loads them (``import repro.experiments.runner``
loads no ``concurrent.futures``).
"""

from repro.experiments.design import (
    MigrationScenario,
    all_scenarios,
    cpuload_source_scenarios,
    cpuload_target_scenarios,
    memload_source_scenarios,
    memload_target_scenarios,
    memload_vm_scenarios,
    LOAD_VM_COUNTS,
    DIRTY_PERCENTS,
)
from repro.experiments.instances import INSTANCE_CATALOG, InstanceSpec, make_instance_vm
from repro.experiments.results import (
    ExperimentResult,
    ProgressEvent,
    RunResult,
    ScenarioResult,
    run_sample_count,
)
from repro.experiments.runner import ScenarioRunner, resolve_run_count
from repro.experiments.testbed import Testbed

__all__ = [
    "resolve_run_count",
    "MigrationScenario",
    "all_scenarios",
    "cpuload_source_scenarios",
    "cpuload_target_scenarios",
    "memload_source_scenarios",
    "memload_target_scenarios",
    "memload_vm_scenarios",
    "LOAD_VM_COUNTS",
    "DIRTY_PERCENTS",
    "INSTANCE_CATALOG",
    "InstanceSpec",
    "make_instance_vm",
    "ExperimentResult",
    "ProgressEvent",
    "RunResult",
    "run_sample_count",
    "ScenarioResult",
    "ScenarioRunner",
    "Testbed",
]
