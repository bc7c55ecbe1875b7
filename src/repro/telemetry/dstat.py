"""Simulated ``dstat`` resource monitoring.

Section V-B: *"we also measure the CPU and memory consumption during each
migration using the dstat tool."*  The monitor samples host-level CPU
utilisation, memory-bus activity and NIC throughput once per second into a
:class:`~repro.telemetry.traces.SeriesTrace` — the per-host feature source
for model training (together with the network instrumentation reading the
transfer bandwidth).

With ``batched=True`` the monitor rides the simulator's interval hooks:
memory and NIC activity are constant between events, and the jittered CPU
reads come from the host's interval kernel — one bulk trace append per
event-free interval, bit-identical to per-second event sampling.
"""

from __future__ import annotations

from repro.cluster.host import PhysicalHost
from repro.simulator.engine import Simulator
from repro.simulator.sampling import PeriodicSampler
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
        Select the interval-hook fast path (bit-identical).
    """

    def __init__(
        self,
        sim: Simulator,
        host: PhysicalHost,
        period_s: float = 1.0,
        batched: bool = False,
    ) -> None:
        self.host = host
        self.trace = SeriesTrace(COLUMNS, label=f"dstat:{host.name}")
        self._sampler = PeriodicSampler(
            sim,
            period_s,
            self._sample,
            batch_callback=self._sample_block if batched else None,
        )

    @property
    def running(self) -> bool:
        """Whether the monitor is currently sampling."""
        return self._sampler.running

    def start(self) -> None:
        """Begin sampling into :attr:`trace`."""
        self._sampler.start()

    def stop(self) -> None:
        """Stop sampling; the trace is retained at its exact size."""
        self._sampler.stop()
        self.trace.trim()

    def _sample(self, t: float) -> None:
        self.trace.append(
            t,
            cpu_pct=self.host.cpu_utilisation_percent(t),
            memory_activity=self.host.memory_activity_fraction(),
            nic_tx_bps=self.host.nic_tx_bps(),
            nic_rx_bps=self.host.nic_rx_bps(),
        )

    def _sample_block(self, times: list[float]) -> None:
        # Everything but the jittered CPU read is constant between events.
        host = self.host
        n = len(times)
        buf_t, (b_cpu, b_mem, b_tx, b_rx), start = self.trace._reserve(n, times[0])
        end = start + n
        buf_t[start:end] = times
        b_cpu[start:end] = [u * 100.0 for u in host.kernel.util_block(times)]
        b_mem[start:end] = host.memory_activity_fraction()
        b_tx[start:end] = host.nic_tx_bps()
        b_rx[start:end] = host.nic_rx_bps()
        self.trace._commit(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DstatMonitor on {self.host.name} n={len(self.trace)}>"
