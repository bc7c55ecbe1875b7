"""Instrumented two-host testbed builder (Table IIc).

A :class:`Testbed` bundles everything one experimental run needs: the
simulator, the homogeneous host pair with their switch, per-host Xen
instances, the toolstack, two power meters on the AC side, and the
feature recorder that stands in for the paper's dstat and network
instrumentation (a :class:`~repro.telemetry.dstat.DstatMonitor` can be
attached to either host; nothing in a run reads one).  Every stochastic
element draws from streams derived from the run's master seed.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.host import PhysicalHost
from repro.cluster.machines import machine_pair, switch_spec
from repro.cluster.network import NetworkPath
from repro.errors import ConfigurationError
from repro.hypervisor.migration import MigrationJob
from repro.hypervisor.toolstack import Toolstack
from repro.hypervisor.vm import VirtualMachine
from repro.hypervisor.vmm import XenHypervisor
from repro.simulator.engine import Simulator
from repro.simulator.rng import RandomStreams, derive_seed
from repro.simulator.sampling import PeriodicSampler
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
    ) -> None:
        self.source = source
        self.target = target
        self.vm = vm
        self.trace = SeriesTrace(FEATURE_COLUMNS, label="features")
        self._job: Optional[MigrationJob] = None
        self._sampler = PeriodicSampler(
            sim,
            period_s,
            self._sample,
            batch_callback=self._sample_block if batched else None,
        )

    def attach_job(self, job: MigrationJob) -> None:
        """Point the bandwidth column at an in-flight migration."""
        self._job = job

    def start(self) -> None:
        """Begin sampling."""
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling; the trace is retained at its exact size."""
        self._sampler.stop()
        self.trace.trim()

    def _sample(self, t: float) -> None:
        on_target = 1.0 if self.vm.host is self.target else 0.0
        job = self._job
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

    def _sample_block(self, times: list[float]) -> None:
        """Feature rows over one event-free interval.

        Placement, bandwidth and dirtying ratio are piecewise constant
        between events; the jittered CPU reads come from the hosts' and
        VM's interval kernels.  Bit-identical to per-tick rows.
        """
        on_target = 1.0 if self.vm.host is self.target else 0.0
        job = self._job
        bw = job.current_bandwidth_bps if job is not None else 0.0
        dr = self.vm.dirtying_ratio_percent()
        n = len(times)
        buf_t, (b_src, b_tgt, b_vm, b_on, b_bw, b_dr), start = (
            self.trace._reserve(n, times[0])
        )
        end = start + n
        buf_t[start:end] = times
        b_src[start:end] = [u * 100.0 for u in self.source.kernel.util_block(times)]
        b_tgt[start:end] = [u * 100.0 for u in self.target.kernel.util_block(times)]
        b_vm[start:end] = self.vm.cpu_percent_values(times)
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
        interval-hook fast path and its interval kernels
        (:mod:`repro.simulator.kernels`); ``"events"`` keeps one heap
        event per sample.  Traces are bit-identical either way (see
        ``docs/performance.md``).
    """

    def __init__(
        self,
        family: str = "m",
        seed: int = 0,
        meter_period_s: float = 0.5,
        telemetry: str = "batched",
    ) -> None:
        if telemetry not in ("batched", "events"):
            raise ConfigurationError(
                f"telemetry must be 'batched' or 'events', got {telemetry!r}"
            )
        self.family = family
        self.seed = int(seed)
        self.telemetry = telemetry
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
            period_s=meter_period_s, batched=batched,
        )
        self.target_meter = PowerMeter(
            self.sim, self.target, self.streams.stream("meter:tgt"),
            period_s=meter_period_s, batched=batched,
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
        )

    def start_instrumentation(self) -> None:
        """Start both power meters."""
        self.source_meter.start()
        self.target_meter.start()

    def stop_instrumentation(self) -> None:
        """Stop both power meters."""
        self.source_meter.stop()
        self.target_meter.stop()
