"""Recover migration phase boundaries from a power trace.

The paper's authors identified the energy phases "by collecting and
analysing instantaneous power draw traces of a VM migration" (Section
III-D).  This module implements that analysis as a change-point detector,
so the pipeline can also be driven from measurements alone — a cross-check
of the simulator's ground-truth timeline, and the entry point for applying
the library to *real* meter traces.

Real traces make naive baseline-departure tests fail twice over: slow
thermal drift moves the baseline by tens of watts, and the post-migration
steady state sits at a *different* level than the pre-migration one (the
VM left one host and arrived on the other).  The detector therefore works
on **gradient activity**: migrations announce themselves through clustered
fast power edges (suspend drops, transfer steps, activation jumps), while
drift is slow and noise is unclustered.

Contract: ``ms``/``me`` are detected from the first/last strong edge of
the activity cluster; the inner boundaries ``ts``/``te`` are *estimated*
by the initiation/activation margins (a meter alone cannot see the
toolstack's internal handoffs — the paper, too, annotates them from
knowledge of the experiment).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PhaseError
from repro.phases.timeline import PhaseTimeline
from repro.telemetry.traces import PowerTrace

__all__ = ["detect_phases"]


def _step_statistic(watts: np.ndarray, half_window: int) -> np.ndarray:
    """|mean of next half-window − mean of previous half-window| per sample.

    A matched filter for level steps: slow drift (W-scale change over tens
    of seconds) and white noise both stay small, while a genuine migration
    edge — a tens-of-watts level change within a couple of samples — shows
    its full height.
    """
    cumulative = np.concatenate(([0.0], np.cumsum(watts)))

    def window_mean(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        return (cumulative[stop] - cumulative[start]) / np.maximum(stop - start, 1)

    n = watts.size
    idx = np.arange(n)
    left_lo = np.maximum(idx - half_window, 0)
    right_hi = np.minimum(idx + half_window, n)
    before = window_mean(left_lo, idx)
    after = window_mean(idx, right_hi)
    stat = np.abs(after - before)
    # The ends have one-sided windows; suppress them to avoid edge artefacts.
    stat[:half_window] = 0.0
    stat[-half_window:] = 0.0
    return stat


def detect_phases(
    trace: PowerTrace,
    baseline_samples: int = 20,
    step_window_s: float = 3.0,
    min_step_w: float = 32.0,
    threshold_sigmas: float = 6.0,
    cluster_gap_s: float = 60.0,
    init_margin_s: float = 3.0,
    activation_margin_s: float = 2.5,
) -> PhaseTimeline:
    """Detect migration phase boundaries in a power trace.

    Parameters
    ----------
    trace:
        Power readings spanning the whole run (steady head and tail
        included — the paper's measurement protocol guarantees both).
    baseline_samples:
        Readings at the head used to estimate quiescent noise (matches
        the paper's 20-reading stabilisation window).
    step_window_s:
        Width of the two-sided step filter.
    min_step_w:
        Absolute floor of the step threshold in watts; thermal drift and
        fan hunting stay below this while suspend/transfer/activation
        edges exceed it by design of the migration mechanics.
    threshold_sigmas:
        Noise-scaled component of the threshold.
    cluster_gap_s:
        Steps closer than this belong to the same migration.
    init_margin_s, activation_margin_s:
        Estimated initiation/activation spans used to place ``ts``/``te``
        inside the detected window (a meter alone cannot observe the
        toolstack's internal handoffs).

    Returns
    -------
    PhaseTimeline
        With ``ms/ts/te/me`` set (no round records — those are engine
        knowledge a meter cannot see).

    Raises
    ------
    PhaseError
        If the trace is too short or contains no detectable activity.
    """
    times = trace.times
    watts = trace.watts
    if times.size < baseline_samples + 8:
        raise PhaseError(
            f"trace too short for detection: {times.size} samples "
            f"(need > {baseline_samples + 8})"
        )

    dt = float(np.median(np.diff(times)))
    half_window = max(2, int(round(step_window_s / dt / 2)))
    stat = _step_statistic(watts, half_window)
    head_sigma = float(np.std(watts[:baseline_samples]))
    threshold = max(threshold_sigmas * head_sigma, min_step_w)

    edge_indices = np.flatnonzero(stat > threshold)
    if edge_indices.size == 0:
        raise PhaseError("no migration activity found in trace")

    # The migration spans from the first step of the densest activity
    # stretch to its last: group steps whose spacing stays under the gap.
    edge_times = times[edge_indices]
    gaps = np.diff(edge_times)
    cluster_breaks = np.flatnonzero(gaps > cluster_gap_s)
    starts = np.concatenate(([0], cluster_breaks + 1))
    ends = np.concatenate((cluster_breaks, [edge_times.size - 1]))
    spans = edge_times[ends] - edge_times[starts]
    sizes = ends - starts + 1
    # Prefer the widest multi-step cluster; fall back to the biggest one.
    order = np.lexsort((sizes, spans))
    best = int(order[-1])
    t_first = float(edge_times[starts[best]])
    t_last = float(edge_times[ends[best]])

    # The step filter peaks half a window *around* each true edge.
    blur = half_window * dt
    ms = max(float(times[0]), t_first - blur)
    me = min(float(times[-1]), t_last + blur)
    ts = min(ms + init_margin_s, me)
    te = max(me - activation_margin_s, ts)

    timeline = PhaseTimeline(ms=ms, ts=ts, te=te, me=me)
    timeline.validate()
    return timeline
