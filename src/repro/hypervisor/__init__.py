"""Xen-like hypervisor substrate (subsystem S3).

Implements the hypervisor mechanisms the paper's measurements depend on:

* :class:`~repro.hypervisor.memory.VmMemory` — guest memory with Xen-style
  dirty-page logging and analytically faithful random-write statistics;
* :class:`~repro.hypervisor.vm.VirtualMachine` — paravirtualised guest
  with a lifecycle state machine;
* :class:`~repro.hypervisor.vmm.XenHypervisor` — per-host VMM with dom-0
  and the arbitration overhead term CPUVMM of Eq. 2;
* :class:`~repro.hypervisor.migration.MigrationJob` — the live (iterative
  pre-copy + stop-and-copy) and non-live (suspend/resume) migration
  engines, producing the phase timeline of Section III-D;
* :class:`~repro.hypervisor.toolstack.Toolstack` — an xl/xm-flavoured
  facade used by the experiment harness.
"""

from repro.hypervisor.memory import VmMemory, expected_distinct_pages
from repro.hypervisor.migration import MigrationConfig, MigrationJob, MigrationKind
from repro.hypervisor.toolstack import Toolstack
from repro.hypervisor.vm import VirtualMachine, VmState
from repro.hypervisor.vmm import XenHypervisor

__all__ = [
    "VmMemory",
    "expected_distinct_pages",
    "MigrationConfig",
    "MigrationJob",
    "MigrationKind",
    "Toolstack",
    "VirtualMachine",
    "VmState",
    "XenHypervisor",
]
