"""Power→energy integration.

The paper extracts per-phase energy "by integrating the power over its
length" (Section VI).  With 2 Hz samples and phase boundaries that fall
between samples, the integral needs boundary interpolation: we insert
linearly interpolated readings at ``t0`` and ``t1`` and run a trapezoidal
rule over the combined grid, which is exact for piecewise-linear power.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError

__all__ = ["integrate_power"]


def integrate_power(times: np.ndarray, watts: np.ndarray, t0: float, t1: float) -> float:
    """Trapezoidal energy (joules) of a sampled power signal over [t0, t1].

    Parameters
    ----------
    times, watts:
        Aligned sample arrays; ``times`` must be strictly increasing.
    t0, t1:
        Integration bounds; must satisfy ``t0 <= t1`` and lie within the
        sampled span (an energy estimate outside the measurement window
        would be an extrapolation, which the paper never does).

    Returns
    -------
    float
        ``∫ P dt`` in joules; 0 when ``t0 == t1``.
    """
    times = np.asarray(times, dtype=np.float64)
    watts = np.asarray(watts, dtype=np.float64)
    if times.ndim != 1 or times.shape != watts.shape:
        raise TraceError("times and watts must be 1-D arrays of equal length")
    if times.size < 2:
        raise TraceError("need at least two samples to integrate")
    if np.any(np.diff(times) <= 0):
        raise TraceError("times must be strictly increasing")
    if t1 < t0:
        raise TraceError(f"integration bounds reversed: [{t0}, {t1}]")
    if t0 < times[0] - 1e-9 or t1 > times[-1] + 1e-9:
        raise TraceError(
            f"bounds [{t0:.3f}, {t1:.3f}] outside sampled span "
            f"[{times[0]:.3f}, {times[-1]:.3f}]"
        )
    if t0 == t1:
        return 0.0

    # Clamp tiny float excursions at the ends.
    t0 = max(t0, float(times[0]))
    t1 = min(t1, float(times[-1]))

    inside = (times > t0) & (times < t1)
    grid = np.concatenate(([t0], times[inside], [t1]))
    values = np.interp(grid, times, watts)
    return float(np.trapezoid(values, grid))
