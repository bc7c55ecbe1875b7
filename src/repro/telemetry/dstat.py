"""Simulated ``dstat`` resource monitoring.

Section V-B: *"we also measure the CPU and memory consumption during each
migration using the dstat tool."*  The monitor samples host-level CPU
utilisation, memory-bus activity and NIC throughput once per second into a
:class:`~repro.telemetry.traces.SeriesTrace` — the per-host feature source
for model training (together with the network instrumentation reading the
transfer bandwidth).

With ``batched=True`` the monitor rides the simulator's interval hooks:
memory and NIC activity are constant between events, and the jittered CPU
reads come from the host's vectorized block method — one bulk trace append
per event-free interval, bit-identical to per-second event sampling.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.host import PhysicalHost
from repro.simulator.engine import Simulator
from repro.simulator.kernels import validate_compute
from repro.simulator.sampling import SCALAR_BLOCK_MAX, PeriodicSampler
from repro.telemetry.traces import SeriesTrace

__all__ = ["DstatMonitor"]

#: Columns recorded per sample.
COLUMNS = ("cpu_pct", "memory_activity", "nic_tx_bps", "nic_rx_bps")


class DstatMonitor:
    """Per-second host resource sampler.

    Parameters
    ----------
    sim:
        The driving simulator.
    host:
        The monitored machine.
    period_s:
        Sampling interval (dstat's default of 1 s).
    batched:
        Select the vectorized interval-hook fast path (bit-identical).
    compute:
        Kernel selection for batched blocks (see
        :mod:`repro.simulator.kernels`); ``"python"`` keeps every block
        on the scalar memoised pipeline.  Same bits in both modes.
    """

    def __init__(
        self,
        sim: Simulator,
        host: PhysicalHost,
        period_s: float = 1.0,
        batched: bool = False,
        compute: str = "numpy",
    ) -> None:
        self.host = host
        self.trace = SeriesTrace(COLUMNS, label=f"dstat:{host.name}")
        self._compute = validate_compute(compute)
        self._sampler = PeriodicSampler(
            sim,
            period_s,
            self._sample,
            batched=batched,
            batch_callback=self._sample_block if batched else None,
            vectorized=batched and self._compute != "python",
        )

    @property
    def running(self) -> bool:
        """Whether the monitor is currently sampling."""
        return self._sampler.running

    def start(self) -> None:
        """Begin sampling into :attr:`trace`."""
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling (the trace is retained)."""
        self._sampler.stop()

    def _sample(self, t: float) -> None:
        self.trace.append(
            t,
            cpu_pct=self.host.cpu_utilisation_percent(t),
            memory_activity=self.host.memory_activity_fraction(),
            nic_tx_bps=self.host.nic_tx_bps(),
            nic_rx_bps=self.host.nic_rx_bps(),
        )

    def _sample_block(self, times: np.ndarray) -> None:
        # Everything but the jittered CPU read is constant between events.
        if self._compute == "python" or times.size <= SCALAR_BLOCK_MAX:
            host = self.host
            memory_activity = host.memory_activity_fraction()
            nic_tx = host.nic_tx_bps()
            nic_rx = host.nic_rx_bps()
            cpu_cached = host.cpu_utilisation_fraction_cached
            times_list = times.tolist()
            n = len(times_list)
            buf_t, (b_cpu, b_mem, b_tx, b_rx), start = (
                self.trace._reserve(n, times_list[0])
            )
            for i, t in enumerate(times_list):
                j = start + i
                buf_t[j] = t
                b_cpu[j] = cpu_cached(t) * 100.0
                b_mem[j] = memory_activity
                b_tx[j] = nic_tx
                b_rx[j] = nic_rx
            self.trace._commit(n)
            return
        n = times.size
        times_list = times.tolist()
        kernel = self.host.attach_kernel()
        buf_t, (b_cpu, b_mem, b_tx, b_rx), start = (
            self.trace._reserve(n, times_list[0])
        )
        end = start + n
        buf_t[start:end] = times
        # The kernel serves the jittered reads straight from the shared
        # per-timestamp memo when the meter already published them this
        # interval; otherwise it recomputes from the noise grid (pure, so
        # bit-identical either way).
        b_cpu[start:end] = kernel.util_block(times, times_list) * 100.0
        b_mem[start:end] = self.host.memory_activity_fraction()
        b_tx[start:end] = self.host.nic_tx_bps()
        b_rx[start:end] = self.host.nic_rx_bps()
        self.trace._commit(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DstatMonitor on {self.host.name} n={len(self.trace)}>"
