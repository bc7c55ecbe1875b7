"""Deterministic chaos harness: seeded fault injection at named seams.

The fault-tolerance layer (:mod:`repro.experiments.faults`) is only
trustworthy if it is exercised — so the execution stack exposes *named
seams* where a seeded :class:`ChaosSchedule` can inject crashes, delays
or payload corruption:

========================  =====================================================
seam                      where it trips
========================  =====================================================
``claim``                 a worker claiming a task (spool rename)
``execute``               inside :func:`~repro.experiments.executor.execute_batch`,
                          once per run
``heartbeat``             a worker's lease-refresh beat (claim ``utime``)
``publish``               a worker announcing per-run progress (spool NDJSON
                          sidecar)
``cache-put``             persisting a run result into the shared cache
                          (byte seam: ``corrupt`` mangles the payload)
========================  =====================================================

A schedule is a seed plus an ordered list of rules, written as a compact
spec string (``--chaos SPEC`` on the CLI, ``WAVM3_CHAOS`` in worker
environments)::

    seed=7; execute:crash:rate=0.5:max=2; cache-put:corrupt:max=1

Each clause is ``SEAM:ACTION[:key=value]...`` with ``ACTION`` one of
``crash`` (raise :class:`ChaosError`), ``delay`` (sleep ``delay=SECONDS``,
default 0.05) or ``corrupt`` (byte seams only: deterministically mangle
the payload).  ``rate=R`` trips the rule on a deterministic pseudo-random
fraction R of its invocations (default 1.0: every time), ``max=N`` caps
total trips (essential for soak tests that must terminate), and
``tag=SUBSTR`` restricts the rule to invocations whose tag (typically the
scenario label) contains the substring.

Everything is deterministic: the trip decision for invocation *n* of
rule *i* hashes ``(seed, i, seam, n)`` — no wall clock, no RNG state —
so a chaos campaign is as reproducible as a fault-free one.  The
standing guarantee tested by the chaos soak suite is that campaign
samples remain **byte-identical** under injected faults, because retried
runs are deterministic given their derived seeds.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.faults import stable_unit_interval

__all__ = [
    "ACTIONS",
    "BYTE_SEAMS",
    "CHAOS_ENV_VAR",
    "SEAMS",
    "ChaosError",
    "ChaosRule",
    "ChaosSchedule",
    "activate",
    "active_schedule",
    "chaos_bytes",
    "chaos_trip",
    "deactivate",
]

#: Environment variable carrying a chaos spec into worker processes.
CHAOS_ENV_VAR = "WAVM3_CHAOS"

SEAMS = ("claim", "execute", "heartbeat", "publish", "cache-put")
ACTIONS = ("crash", "delay", "corrupt")
#: Seams that move a byte payload — the only ones ``corrupt`` applies to.
BYTE_SEAMS = ("cache-put",)


class ChaosError(ExperimentError):
    """An injected fault (the ``crash`` action) — never a real failure."""


@dataclass(frozen=True)
class ChaosRule:
    """One fault clause of a schedule (see the module doc for semantics)."""

    seam: str
    action: str
    rate: float = 1.0
    max_trips: Optional[int] = None
    delay_s: float = 0.05
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise ExperimentError(
                f"unknown chaos seam {self.seam!r} (expected one of {SEAMS})"
            )
        if self.action not in ACTIONS:
            raise ExperimentError(
                f"unknown chaos action {self.action!r} (expected one of {ACTIONS})"
            )
        if self.action == "corrupt" and self.seam not in BYTE_SEAMS:
            raise ExperimentError(
                f"chaos action 'corrupt' applies only to byte seams {BYTE_SEAMS}, "
                f"not {self.seam!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ExperimentError(f"chaos rate must be in [0, 1], got {self.rate}")
        if self.max_trips is not None and self.max_trips < 0:
            raise ExperimentError(f"chaos max must be >= 0, got {self.max_trips}")
        if self.delay_s < 0:
            raise ExperimentError(f"chaos delay must be >= 0, got {self.delay_s}")


class ChaosSchedule:
    """A seeded, thread-safe set of fault rules tripping at named seams.

    Trip decisions are deterministic in ``(seed, rule index, seam,
    invocation counter)`` — counters are per-process, so a given worker
    process sees a reproducible fault sequence for its own invocation
    order.
    """

    def __init__(self, rules: Sequence[ChaosRule], seed: int = 0) -> None:
        if not rules:
            raise ExperimentError("a chaos schedule needs at least one rule")
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._invocations = [0] * len(self.rules)
        self._trips = [0] * len(self.rules)

    # -- spec round-trip -----------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "ChaosSchedule":
        """Parse a spec string (see module doc for the grammar).

        Raises
        ------
        ExperimentError
            On an empty spec, unknown seam/action/key, or out-of-range
            values.
        """
        seed = 0
        rules: list[ChaosRule] = []
        clauses = [c.strip() for c in spec.split(";") if c.strip()]
        if not clauses:
            raise ExperimentError(f"empty chaos spec: {spec!r}")
        for clause in clauses:
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError:
                    raise ExperimentError(f"invalid chaos seed clause: {clause!r}")
                continue
            parts = clause.split(":")
            if len(parts) < 2:
                raise ExperimentError(
                    f"chaos clause needs SEAM:ACTION, got {clause!r}"
                )
            seam, action = parts[0].strip(), parts[1].strip()
            kwargs: dict = {}
            for part in parts[2:]:
                key, sep, value = part.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep:
                    raise ExperimentError(
                        f"chaos option must be key=value, got {part!r} in {clause!r}"
                    )
                try:
                    if key == "rate":
                        kwargs["rate"] = float(value)
                    elif key == "max":
                        kwargs["max_trips"] = int(value)
                    elif key == "delay":
                        kwargs["delay_s"] = float(value)
                    elif key == "tag":
                        kwargs["tag"] = value
                    else:
                        raise ExperimentError(
                            f"unknown chaos option {key!r} in {clause!r}"
                        )
                except ValueError:
                    raise ExperimentError(
                        f"invalid chaos value {value!r} for {key!r} in {clause!r}"
                    )
            rules.append(ChaosRule(seam=seam, action=action, **kwargs))
        if not rules:
            raise ExperimentError(f"chaos spec has no fault clauses: {spec!r}")
        return cls(rules, seed=seed)

    def describe(self) -> str:
        """Round-trip the schedule back into a spec string."""
        clauses = [f"seed={self.seed}"]
        for rule in self.rules:
            parts = [rule.seam, rule.action]
            if rule.rate != 1.0:
                parts.append(f"rate={rule.rate:g}")
            if rule.max_trips is not None:
                parts.append(f"max={rule.max_trips}")
            if rule.delay_s != 0.05:
                parts.append(f"delay={rule.delay_s:g}")
            if rule.tag is not None:
                parts.append(f"tag={rule.tag}")
            clauses.append(":".join(parts))
        return ";".join(clauses)

    # -- decisions ------------------------------------------------------
    def trips(self) -> int:
        """Total faults injected so far (all rules, this process)."""
        with self._lock:
            return sum(self._trips)

    def _decide(self, seam: str, tag: Optional[str]) -> Optional[ChaosRule]:
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.seam != seam:
                    continue
                if rule.tag is not None and (tag is None or rule.tag not in tag):
                    continue
                count = self._invocations[index]
                self._invocations[index] += 1
                if rule.max_trips is not None and self._trips[index] >= rule.max_trips:
                    continue
                draw = stable_unit_interval(
                    f"chaos:{self.seed}:{index}:{seam}:{count}"
                )
                if draw >= rule.rate:
                    continue
                self._trips[index] += 1
                return rule
        return None

    def trip(self, seam: str, tag: Optional[str] = None) -> None:
        """Maybe inject a fault at ``seam`` (crash raises, delay sleeps)."""
        rule = self._decide(seam, tag)
        if rule is None:
            return
        if rule.action == "crash":
            raise ChaosError(f"injected crash at seam {seam!r}" + (f" ({tag})" if tag else ""))
        if rule.action == "delay":
            time.sleep(rule.delay_s)
        # "corrupt" at a non-byte call site is a no-op by construction
        # (ChaosRule validation restricts corrupt to byte seams, whose
        # call sites use mangle()).

    def mangle(self, seam: str, data: bytes, tag: Optional[str] = None) -> bytes:
        """Byte-seam variant of :meth:`trip`: may also corrupt ``data``."""
        rule = self._decide(seam, tag)
        if rule is None:
            return data
        if rule.action == "crash":
            raise ChaosError(f"injected crash at seam {seam!r}" + (f" ({tag})" if tag else ""))
        if rule.action == "delay":
            time.sleep(rule.delay_s)
            return data
        return _corrupt_bytes(data)


def _corrupt_bytes(data: bytes) -> bytes:
    """Deterministically mangle a payload (XOR the first 64 bytes).

    Flipping the head destroys the pickle envelope's magic/schema, so
    every loader rejects the payload instead of silently accepting it.
    """
    head = bytes(b ^ 0xFF for b in data[:64])
    return head + data[64:]


# ---------------------------------------------------------------------------
# Process-global active schedule
# ---------------------------------------------------------------------------
_active: Optional[ChaosSchedule] = None
_env_checked = False
_state_lock = threading.Lock()


def activate(schedule: Optional[ChaosSchedule]) -> None:
    """Install ``schedule`` as this process's active chaos schedule."""
    global _active, _env_checked
    with _state_lock:
        _active = schedule
        _env_checked = True


@contextlib.contextmanager
def injected(schedule: ChaosSchedule) -> Iterator[ChaosSchedule]:
    """``schedule`` active for the ``with`` block, the prior state after.

    ``WAVM3_CHAOS`` also carries the schedule for the block, so worker
    subprocesses started inside it inherit it.  On exit, raising or not,
    the previously active schedule and the variable's previous value come
    back.
    """
    global _active, _env_checked
    with _state_lock:
        saved = (_active, _env_checked)
    saved_env = os.environ.get(CHAOS_ENV_VAR)
    activate(schedule)
    os.environ[CHAOS_ENV_VAR] = schedule.describe()
    try:
        yield schedule
    finally:
        with _state_lock:
            _active, _env_checked = saved
        if saved_env is None:
            os.environ.pop(CHAOS_ENV_VAR, None)
        else:
            os.environ[CHAOS_ENV_VAR] = saved_env


def deactivate() -> None:
    """Remove any active schedule and forget the env var was ever read."""
    global _active, _env_checked
    with _state_lock:
        _active = None
        _env_checked = False


def active_schedule() -> Optional[ChaosSchedule]:
    """The process's active schedule, lazily parsed from ``WAVM3_CHAOS``."""
    global _active, _env_checked
    if _active is not None:
        return _active
    if _env_checked:
        return None
    with _state_lock:
        if not _env_checked:
            _env_checked = True
            spec = os.environ.get(CHAOS_ENV_VAR)
            if spec:
                _active = ChaosSchedule.from_spec(spec)
    return _active


def chaos_trip(seam: str, tag: Optional[str] = None) -> None:
    """Trip ``seam`` on the active schedule; no-op when chaos is off."""
    schedule = active_schedule()
    if schedule is not None:
        schedule.trip(seam, tag)


def chaos_bytes(seam: str, data: bytes, tag: Optional[str] = None) -> bytes:
    """Pass ``data`` through the active schedule's byte seam (identity
    when chaos is off)."""
    schedule = active_schedule()
    if schedule is None:
        return data
    return schedule.mangle(seam, data, tag)
