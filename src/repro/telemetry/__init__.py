"""Measurement substrate (subsystem S5).

Simulated counterparts of the paper's instrumentation:

* :class:`~repro.telemetry.powermeter.PowerMeter` — the Voltech PM1000+
  (2 Hz sampling, 0.3 % accuracy) attached to the AC side of each host;
* :class:`~repro.telemetry.dstat.DstatMonitor` — per-second CPU / memory /
  network resource sampling;
* :class:`~repro.telemetry.traces.PowerTrace` /
  :class:`~repro.telemetry.traces.SeriesTrace` — numpy-backed trace
  containers with time-window slicing;
* :mod:`repro.telemetry.integration` — trapezoidal power→energy
  integration with boundary interpolation;
* :mod:`repro.telemetry.stabilization` — the paper's stabilisation rule
  (twenty consecutive readings within 0.3 %).
"""

from repro.telemetry.dstat import DstatMonitor
from repro.telemetry.integration import integrate_power
from repro.telemetry.powermeter import PowerMeter
from repro.telemetry.stabilization import StabilizationRule, is_stable
from repro.telemetry.traces import PowerTrace, SeriesTrace

__all__ = [
    "DstatMonitor",
    "integrate_power",
    "PowerMeter",
    "StabilizationRule",
    "is_stable",
    "PowerTrace",
    "SeriesTrace",
]
