"""Instrumented two-host testbed builder (Table IIc).

A :class:`Testbed` bundles everything one experimental run needs: the
simulator, the homogeneous host pair with their switch, per-host Xen
instances, the toolstack, two power meters on the AC side, two dstat
monitors, and the feature recorder that stands in for the paper's network
instrumentation.  Every stochastic element draws from streams derived
from the run's master seed.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.host import PhysicalHost
from repro.cluster.machines import machine_pair, switch_spec
from repro.cluster.network import NetworkPath
from repro.errors import ConfigurationError
from repro.hypervisor.migration import MigrationJob
from repro.hypervisor.toolstack import Toolstack
from repro.hypervisor.vm import VirtualMachine
from repro.hypervisor.vmm import XenHypervisor
from repro.simulator.engine import Simulator
from repro.simulator.kernels import validate_compute
from repro.simulator.rng import RandomStreams, derive_seed
from repro.simulator.sampling import SCALAR_BLOCK_MAX, PeriodicSampler
from repro.telemetry.dstat import DstatMonitor
from repro.telemetry.powermeter import PowerMeter
from repro.telemetry.traces import SeriesTrace

__all__ = ["Testbed", "FeatureRecorder"]

#: Columns of the feature recorder (model inputs of Section IV-B).
FEATURE_COLUMNS = (
    "cpu_src_pct",
    "cpu_tgt_pct",
    "cpu_vm_pct",
    "vm_on_target",
    "bw_bps",
    "dr_pct",
)


class FeatureRecorder:
    """Samples the model features on the power meter's grid.

    The paper obtains these from dstat plus network instrumentation; here
    they are read from simulation state at the same cadence, keeping
    feature rows aligned one-to-one with meter readings.
    """

    def __init__(
        self,
        sim: Simulator,
        source: PhysicalHost,
        target: PhysicalHost,
        vm: VirtualMachine,
        period_s: float = 0.5,
        batched: bool = False,
        compute: str = "numpy",
    ) -> None:
        self.source = source
        self.target = target
        self.vm = vm
        self.trace = SeriesTrace(FEATURE_COLUMNS, label="features")
        self._job: Optional[MigrationJob] = None
        self._job_provider: Optional[Callable[[], Optional[MigrationJob]]] = None
        self._compute = validate_compute(compute)
        self._sampler = PeriodicSampler(
            sim,
            period_s,
            self._sample,
            batched=batched,
            batch_callback=self._sample_block if batched else None,
            vectorized=batched and self._compute != "python",
        )

    def attach_job(self, job: MigrationJob) -> None:
        """Point the bandwidth column at an in-flight migration."""
        self._job = job

    def attach_job_provider(
        self, provider: Callable[[], Optional[MigrationJob]]
    ) -> None:
        """Point the bandwidth column at a migration *source*.

        Manager-driven runs do not know the migration job up front — the
        consolidation manager issues it on its own monitoring tick, in
        the middle of a simulated wait.  A provider (e.g.
        ``lambda: manager.active_job``) lets the recorder pick the job up
        at the very tick it is issued, instead of recording bandwidth 0
        until the runner's next check-grid poll notices it.
        """
        self._job_provider = provider

    def _current_job(self) -> Optional[MigrationJob]:
        if self._job is not None:
            return self._job
        if self._job_provider is not None:
            return self._job_provider()
        return None

    def start(self) -> None:
        """Begin sampling."""
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling."""
        self._sampler.stop()

    def _sample(self, t: float) -> None:
        on_target = 1.0 if self.vm.host is self.target else 0.0
        job = self._current_job()
        bw = job.current_bandwidth_bps if job is not None else 0.0
        self.trace.append(
            t,
            cpu_src_pct=self.source.cpu_utilisation_percent(t),
            cpu_tgt_pct=self.target.cpu_utilisation_percent(t),
            cpu_vm_pct=self.vm.cpu_percent(t),
            vm_on_target=on_target,
            bw_bps=bw,
            dr_pct=self.vm.dirtying_ratio_percent(),
        )

    def _sample_block(self, times: np.ndarray) -> None:
        """Vectorized feature rows over one event-free interval.

        Placement, bandwidth and dirtying ratio are piecewise constant
        between events; the jittered CPU reads come from the hosts' and
        VM's vectorized block methods.  Bit-identical to per-tick rows.
        Short blocks loop the scalar memoised pipeline — same bits,
        less fixed numpy overhead.
        """
        on_target = 1.0 if self.vm.host is self.target else 0.0
        job = self._current_job()
        bw = job.current_bandwidth_bps if job is not None else 0.0
        dr = self.vm.dirtying_ratio_percent()
        if self._compute == "python" or times.size <= SCALAR_BLOCK_MAX:
            times_list = times.tolist()
            source_cached = self.source.cpu_utilisation_fraction_cached
            target_cached = self.target.cpu_utilisation_fraction_cached
            vm_values = self.vm.cpu_percent_values(times_list)
            n = len(times_list)
            buf_t, (b_src, b_tgt, b_vm, b_on, b_bw, b_dr), start = (
                self.trace._reserve(n, times_list[0])
            )
            for i, t in enumerate(times_list):
                j = start + i
                buf_t[j] = t
                b_src[j] = source_cached(t) * 100.0
                b_tgt[j] = target_cached(t) * 100.0
                b_vm[j] = vm_values[i]
                b_on[j] = on_target
                b_bw[j] = bw
                b_dr[j] = dr
            self.trace._commit(n)
            return
        n = times.size
        times_list = times.tolist()
        buf_t, (b_src, b_tgt, b_vm, b_on, b_bw, b_dr), start = (
            self.trace._reserve(n, times_list[0])
        )
        end = start + n
        buf_t[start:end] = times
        b_src[start:end] = (
            self.source.attach_kernel().util_block(times, times_list) * 100.0
        )
        b_tgt[start:end] = (
            self.target.attach_kernel().util_block(times, times_list) * 100.0
        )
        b_vm[start:end] = self.vm.attach_kernel().cpu_percent_block(times, times_list)
        b_on[start:end] = on_target
        b_bw[start:end] = bw
        b_dr[start:end] = dr
        self.trace._commit(n)


class Testbed:
    """One instrumented source/target pair ready to run a migration.

    Parameters
    ----------
    family:
        Machine pair: ``"m"`` (m01–m02) or ``"o"`` (o1–o2).
    seed:
        Master seed of this run; all component streams derive from it.
    meter_period_s:
        Power-meter sampling interval (0.5 s = the PM1000+'s 2 Hz).
    telemetry:
        ``"batched"`` (default) samples all instruments through the
        vectorized interval-hook fast path; ``"events"`` keeps one heap
        event per sample.  Traces are bit-identical either way (see
        ``docs/performance.md``).
    compute:
        Kernel implementation of the batched blocks: ``"python"`` is the
        all-scalar reference, ``"numpy"`` (default) the adaptive hybrid
        with array kernels on long blocks.  Traces are bit-identical
        across both modes (see :mod:`repro.simulator.kernels`).
    """

    def __init__(
        self,
        family: str = "m",
        seed: int = 0,
        meter_period_s: float = 0.5,
        telemetry: str = "batched",
        compute: str = "numpy",
    ) -> None:
        if telemetry not in ("batched", "events"):
            raise ConfigurationError(
                f"telemetry must be 'batched' or 'events', got {telemetry!r}"
            )
        self.family = family
        self.seed = int(seed)
        self.telemetry = telemetry
        self.compute = validate_compute(compute)
        batched = telemetry == "batched"
        self.streams = RandomStreams(seed)
        self.sim = Simulator()

        source_spec, target_spec = machine_pair(family)
        self.source = PhysicalHost(source_spec, noise_seed=derive_seed(seed, "host:src"))
        self.target = PhysicalHost(target_spec, noise_seed=derive_seed(seed, "host:tgt"))
        self.path = NetworkPath(
            self.source,
            self.target,
            switch_spec(family),
            jitter_seed=derive_seed(seed, "network"),
        )
        self.source_xen = XenHypervisor(self.source)
        self.target_xen = XenHypervisor(self.target)
        self.toolstack = Toolstack(
            self.sim,
            {source_spec.name: self.source_xen, target_spec.name: self.target_xen},
            self.streams.stream("migration"),
        )
        self.source_meter = PowerMeter(
            self.sim, self.source, self.streams.stream("meter:src"),
            period_s=meter_period_s, batched=batched, compute=compute,
        )
        self.target_meter = PowerMeter(
            self.sim, self.target, self.streams.stream("meter:tgt"),
            period_s=meter_period_s, batched=batched, compute=compute,
        )
        self.source_dstat = DstatMonitor(
            self.sim, self.source, batched=batched, compute=compute
        )
        self.target_dstat = DstatMonitor(
            self.sim, self.target, batched=batched, compute=compute
        )

    # ------------------------------------------------------------------
    @property
    def source_name(self) -> str:
        """Catalog name of the source machine."""
        return self.source.spec.name

    @property
    def target_name(self) -> str:
        """Catalog name of the target machine."""
        return self.target.spec.name

    def make_feature_recorder(self, vm: VirtualMachine) -> FeatureRecorder:
        """Feature recorder tracking the given migrating guest."""
        return FeatureRecorder(
            self.sim, self.source, self.target, vm,
            period_s=self.source_meter.period_s,
            batched=self.telemetry == "batched",
            compute=self.compute,
        )

    def start_instrumentation(self) -> None:
        """Start both meters and both dstat monitors."""
        self.source_meter.start()
        self.target_meter.start()
        self.source_dstat.start()
        self.target_dstat.start()

    def stop_instrumentation(self) -> None:
        """Stop both meters and both dstat monitors."""
        self.source_meter.stop()
        self.target_meter.stop()
        self.source_dstat.stop()
        self.target_dstat.stop()
