"""Campaign fault-tolerance primitives: failure taxonomy, retry budgets,
watchdogs and the failure ledger.

A production-scale campaign cannot treat every worker exception as fatal:
transient faults (a worker OOM-killed mid-run, a flaky filesystem, a
dropped connection) should be retried with backoff, while a task that
fails deterministically must be *quarantined* after a bounded number of
attempts instead of being requeued forever.  This module provides the
vocabulary the executor, the task board
(:mod:`repro.experiments.taskboard`, which decides every retry and fate)
and the queue backend share:

* :class:`RunFailure` — one frozen record per failed task attempt (task
  id, run indices, attempt number, worker, exception class, traceback
  digest, wall time, fate).  Serialised as ``wavm3-failure/1``
  (:mod:`repro.io`) into the campaign's *failure ledger*.
* :class:`FailureLedger` — the per-campaign accumulator of
  :class:`RunFailure` records, persisted as NDJSON next to the run cache
  (``<cache-dir>/failures.ndjson``) and surfaced in the campaign
  summary.
* :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter (a hash of the task id and attempt number, so two campaigns
  with the same failures sleep the same schedule).
* :class:`TaskFailure` — the exception the queue backend attaches to a
  task future, carrying the structured :class:`RunFailure`.
* :func:`run_with_deadline` — the worker-side watchdog: runs a callable
  under a wall-clock deadline and raises :class:`RunTimeoutError`
  instead of hanging the claim forever.

See ``docs/robustness.md`` for the task lifecycle.
"""

from __future__ import annotations

import hashlib
import pathlib
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, TypeVar

from repro.errors import ExperimentError

__all__ = [
    "EXIT_DEGRADED",
    "FAILURE_FATES",
    "ON_FAILURE_MODES",
    "FailureLedger",
    "RetryPolicy",
    "RunFailure",
    "RunTimeoutError",
    "TaskFailure",
    "failure_from_exception",
    "run_with_deadline",
    "stable_unit_interval",
    "traceback_digest",
]

#: Exit code of a campaign that *completed* but degraded (quarantined or
#: skipped tasks, dropped scenarios) — distinct from ``1`` (hard failure)
#: and ``2`` (argparse usage errors).
EXIT_DEGRADED = 3

#: What the coordinator does once a task's retry budget is exhausted.
ON_FAILURE_MODES = ("raise", "skip", "quarantine")

#: What ultimately happened to a failed attempt.
FAILURE_FATES = ("retried", "quarantined", "skipped", "fatal", "tolerated")

_T = TypeVar("_T")


def stable_unit_interval(token: str) -> float:
    """Map ``token`` deterministically onto ``[0, 1)``.

    The uniform source behind every deterministic "random" decision of
    the fault layer (retry jitter, chaos trip rates): a SHA-256 of the
    token, so the same token yields the same draw in every process on
    every platform.
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def traceback_digest(text: Optional[str]) -> Optional[str]:
    """A short stable digest of a traceback, or ``None`` for none.

    The ledger stores the digest instead of the full text: enough to
    group identical failures across attempts and workers without
    shipping kilobytes of frames per record.
    """
    if not text:
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class RunFailure:
    """One failed task attempt, as recorded in the failure ledger.

    Serialised by :func:`repro.io.encode_record` under the
    ``wavm3-failure/1`` schema.
    """

    task_id: str
    scenario: str
    run_indices: Tuple[int, ...]
    attempt: int
    worker: str
    kind: str                              # exception class name
    message: str
    traceback_digest: Optional[str] = None
    wall_s: Optional[float] = None
    at: float = 0.0
    fate: str = "retried"                  # one of FAILURE_FATES

    def __post_init__(self) -> None:
        if self.fate not in FAILURE_FATES:
            raise ExperimentError(
                f"unknown failure fate {self.fate!r} (expected one of {FAILURE_FATES})"
            )

    def with_fate(self, fate: str) -> "RunFailure":
        """A copy of this record with its final ``fate`` filled in."""
        return replace(self, fate=fate)


def failure_from_exception(
    exc: BaseException,
    *,
    task_id: str,
    scenario: str,
    run_indices: Tuple[int, ...],
    attempt: int,
    worker: str,
    traceback_text: Optional[str] = None,
    wall_s: Optional[float] = None,
    at: Optional[float] = None,
) -> RunFailure:
    """Build a :class:`RunFailure` from a raised exception.

    A :class:`TaskFailure` already carrying a structured record is
    unwrapped (the backend-side record knows the true worker id); only
    the attempt number and timestamp are overridden with the
    coordinator's view.
    """
    stamp = time.time() if at is None else at
    inner = getattr(exc, "failure", None)
    if isinstance(inner, RunFailure):
        return replace(inner, attempt=attempt, at=stamp)
    return RunFailure(
        task_id=task_id,
        scenario=scenario,
        run_indices=tuple(run_indices),
        attempt=attempt,
        worker=worker,
        kind=type(exc).__name__,
        message=str(exc),
        traceback_digest=traceback_digest(traceback_text),
        wall_s=wall_s,
        at=stamp,
    )


class TaskFailure(ExperimentError):
    """A task attempt failed; carries the structured record.

    The queue backend resolves a task future with this exception so the
    coordinator sees *structured* failure data (worker id, exception
    class, traceback digest) instead of a bare message.  Whether the
    task is retried is the task board's decision.
    """

    def __init__(self, message: str, failure: Optional[RunFailure] = None) -> None:
        super().__init__(message)
        self.failure = failure


class RunTimeoutError(ExperimentError):
    """A run (or batch) exceeded its wall-clock deadline (watchdog)."""


def run_with_deadline(
    fn: Callable[[], _T],
    timeout_s: Optional[float],
    label: str = "task",
) -> _T:
    """Run ``fn`` under a wall-clock deadline.

    ``fn`` executes on a daemon thread joined with ``timeout_s``; on
    expiry a :class:`RunTimeoutError` is raised and the runaway thread
    is abandoned (daemonised, so it cannot block process exit).  This is
    the portable worker-side watchdog — no ``SIGALRM``, so it works on
    every platform and inside worker threads.

    Parameters
    ----------
    fn:
        Zero-argument callable (close over the task).
    timeout_s:
        Deadline in seconds; ``None`` runs ``fn`` inline with no
        watchdog (and no extra thread).
    label:
        Human-readable task name for the timeout message.

    Returns
    -------
    The callable's return value.

    Raises
    ------
    RunTimeoutError
        When the deadline expires before ``fn`` returns.
    """
    if timeout_s is None:
        return fn()
    if timeout_s <= 0:
        raise ExperimentError(f"timeout_s must be > 0, got {timeout_s}")
    box: dict = {}
    done = threading.Event()

    def _target() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - mirrored to the caller
            box["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=_target, daemon=True, name=f"watchdog-{label}")
    thread.start()
    if not done.wait(timeout_s):
        raise RunTimeoutError(
            f"{label} exceeded its {timeout_s:g}s wall-clock deadline"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    The delay before re-dispatching a task after its ``attempt``-th
    failure is ``min(cap_s, base_s * 2**(attempt-1))``, scaled by a
    jitter factor in ``[1-jitter, 1+jitter]`` drawn deterministically
    from the task id and attempt number — so retry schedules are
    reproducible run-to-run yet decorrelated across tasks.
    """

    base_s: float = 0.5
    cap_s: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.cap_s < self.base_s:
            raise ExperimentError(
                f"invalid backoff bounds: base={self.base_s} cap={self.cap_s}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ExperimentError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Backoff before the retry that follows failed attempt ``attempt``."""
        if attempt < 1:
            raise ExperimentError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.cap_s, self.base_s * (2.0 ** (attempt - 1)))
        unit = stable_unit_interval(f"retry:{token}:{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))


class FailureLedger:
    """The per-campaign accumulator of :class:`RunFailure` records.

    Records live in memory always and — when ``path`` is given — are
    appended to an NDJSON file (``wavm3-failure/1`` lines) as they
    arrive, so a crashed coordinator leaves a readable ledger behind.
    The executor resets the ledger at campaign start; persistence
    failures are swallowed (the ledger must never take a campaign down).
    """

    def __init__(self, path=None) -> None:
        self.path = path
        self.records: list[RunFailure] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.records)

    def reset(self) -> None:
        """Start a fresh campaign: drop records, truncate the file."""
        with self._lock:
            self.records = []
            if self.path is not None:
                try:
                    pathlib.Path(self.path).unlink(missing_ok=True)
                except OSError:
                    pass

    def record(self, failure: RunFailure) -> RunFailure:
        """Append one record (and persist it when a path is configured)."""
        with self._lock:
            self.records.append(failure)
            if self.path is not None:
                try:
                    from repro.io import append_record

                    append_record(failure, self.path)
                except OSError:
                    pass
        return failure

    def counts_by_fate(self) -> dict:
        """``{fate: count}`` over the recorded failures (insertion order)."""
        counts: dict = {}
        with self._lock:
            for record in self.records:
                counts[record.fate] = counts.get(record.fate, 0) + 1
        return counts

    def summary_line(self) -> str:
        """One human line for the campaign summary (``failures: …``)."""
        counts = self.counts_by_fate()
        total = sum(counts.values())
        if total == 0:
            return "failures: none"
        parts = ", ".join(
            f"{count} {fate}" for fate, count in sorted(counts.items())
        )
        suffix = f" — ledger: {self.path}" if self.path is not None else ""
        return f"failures: {total} recorded ({parts}){suffix}"
