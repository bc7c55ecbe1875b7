"""The paper's power-stabilisation rule.

Section V-B: *"We say that the power consumption of the host stabilises
when we read twenty consecutive power measurements with a difference
lower than 0.3 %, that is below our measurement device's accuracy."*

The rule is used twice per run — before issuing the migration (so the
normal-execution baseline is flat) and after it completes (so the trace
captures the full return to steady state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "StabilizationRule",
    "StabilizationTracker",
    "is_stable",
]


@dataclass(frozen=True)
class StabilizationRule:
    """Parameters of the stability criterion.

    ``n_readings`` consecutive readings must each differ from their
    predecessor by less than ``rel_tolerance`` (relative).
    """

    n_readings: int = 20
    rel_tolerance: float = 0.003

    def __post_init__(self) -> None:
        if self.n_readings < 2:
            raise ConfigurationError(f"n_readings must be >= 2, got {self.n_readings!r}")
        if self.rel_tolerance <= 0:
            raise ConfigurationError(
                f"rel_tolerance must be positive, got {self.rel_tolerance!r}"
            )


def _consecutive_ok(watts: np.ndarray, rule: StabilizationRule) -> np.ndarray:
    """Boolean array: reading i differs from reading i-1 by < tolerance."""
    watts = np.asarray(watts, dtype=np.float64)
    prev = watts[:-1]
    diff = np.abs(np.diff(watts))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(prev != 0, diff / np.abs(prev), np.inf)
    return rel < rule.rel_tolerance


def is_stable(watts: np.ndarray, rule: StabilizationRule = StabilizationRule()) -> bool:
    """Whether the *last* ``n_readings`` of the signal satisfy the rule."""
    watts = np.asarray(watts, dtype=np.float64)
    if watts.size < rule.n_readings:
        return False
    tail = watts[-rule.n_readings:]
    return bool(np.all(_consecutive_ok(tail, rule)))


class StabilizationTracker:
    """Incremental replay of :func:`is_stable` over a growing signal.

    The rule only ever asks one question of the signal's tail: *do the
    last* ``n_readings`` *readings pairwise differ by less than the
    tolerance?*  That is equivalent to tracking the length of the run of
    consecutive in-tolerance differences ending at the latest reading, so
    a meter can answer :meth:`stable` in O(1) per check by feeding every
    new reading through :meth:`observe` — instead of re-materialising and
    re-scanning the whole trace per check.

    The per-difference comparison uses exactly the float operations of
    :func:`is_stable` (``|Δ| / |prev| < tol``, a zero predecessor counts
    as unstable), so tracker and batch function always agree.

    Examples
    --------
    >>> tracker = StabilizationTracker(StabilizationRule(n_readings=3))
    >>> for w in (100.0, 100.1, 100.2):
    ...     tracker.observe(w)
    >>> tracker.stable
    True
    """

    __slots__ = ("rule", "_count", "_last", "_streak")

    def __init__(self, rule: StabilizationRule = StabilizationRule()) -> None:
        self.rule = rule
        self._count = 0
        self._last = 0.0
        self._streak = 0

    @classmethod
    def from_signal(
        cls, rule: StabilizationRule, watts: np.ndarray
    ) -> "StabilizationTracker":
        """Bootstrap a tracker from an already-recorded signal.

        Only the last ``n_readings`` values need scanning: a longer
        in-tolerance run cannot change the verdict.
        """
        tracker = cls(rule)
        watts = np.asarray(watts, dtype=np.float64)
        if watts.size == 0:
            return tracker
        tail = watts[-rule.n_readings:]
        ok = _consecutive_ok(tail, rule)
        streak = 0
        for good in ok[::-1]:
            if not good:
                break
            streak += 1
        tracker._count = int(watts.size)
        tracker._last = float(watts[-1])
        tracker._streak = streak
        return tracker

    def observe(self, watts: float) -> None:
        """Feed one new reading (O(1))."""
        watts = float(watts)
        if self._count:
            prev = self._last
            ok = prev != 0.0 and abs(watts - prev) / abs(prev) < self.rule.rel_tolerance
            self._streak = self._streak + 1 if ok else 0
        self._last = watts
        self._count += 1

    def observe_block(self, watts) -> None:
        """Feed a block of new readings: :meth:`observe` per reading, in order."""
        if isinstance(watts, np.ndarray):
            watts = watts.tolist()
        tol = self.rule.rel_tolerance
        count, last, streak = self._count, self._last, self._streak
        for w in watts:
            if count:
                ok = last != 0.0 and abs(w - last) / abs(last) < tol
                streak = streak + 1 if ok else 0
            last = w
            count += 1
        self._count, self._last, self._streak = count, float(last), streak

    @property
    def count(self) -> int:
        """Readings observed so far."""
        return self._count

    @property
    def streak(self) -> int:
        """Consecutive in-tolerance differences ending at the last reading.

        Bootstrapped trackers cap this at ``n_readings - 1`` (all the
        rule ever needs).
        """
        return self._streak

    @property
    def deficit(self) -> int:
        """Minimum further readings before :attr:`stable` can become true.

        ``0`` when already stable.  Each new reading grows the streak by
        at most one, so at least ``(n_readings - 1) - streak`` more
        readings are needed (and at least ``n_readings - count`` while
        the signal is still shorter than the window) — the basis of the
        runner's stabilisation look-ahead.
        """
        rule = self.rule
        return max(
            rule.n_readings - 1 - self._streak,
            rule.n_readings - self._count,
            0,
        )

    @property
    def stable(self) -> bool:
        """Whether the last ``n_readings`` readings satisfy the rule."""
        rule = self.rule
        return self._count >= rule.n_readings and self._streak >= rule.n_readings - 1
