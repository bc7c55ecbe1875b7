"""The task lifecycle of a campaign: one pure state machine for every backend.

A :class:`TaskBoard` is the one owner of each dispatched task's state,
attempt count and lease-expiry count.  Drivers report events — the
executor leases, completes and fails tasks, the queue backend reports
stale spool claims as expired leases — and the board applies
:data:`TRANSITIONS`, a declarative table whose guards are the attempt
and lease budgets, the retry backoff, the campaign deadline and the
``on_failure`` mode.  The board touches no files, processes or clocks:
each event carries the driver's ``now``, the timer clock of the backoff
and the deadline (``time.monotonic()`` in the executor, so a wall-clock
step moves neither), and each event that records a failure its ``at``,
the record's wall-clock stamp.  Tests drive it with fake clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.faults import (
    ON_FAILURE_MODES,
    RetryPolicy,
    RunFailure,
    failure_from_exception,
)

__all__ = ["COORDINATOR", "TRANSITIONS", "TaskBoard", "TaskEntry", "Transition"]

OPEN, LEASED, RETRY_WAIT = "open", "leased", "retry_wait"
DONE, QUARANTINED, SKIPPED, FATAL = "done", "quarantined", "skipped", "fatal"
#: The states a task never leaves.
ABSORBING = frozenset({DONE, QUARANTINED, SKIPPED, FATAL})

#: The ``worker`` of a failure the coordinator observes itself.
COORDINATOR = "coordinator"


@dataclass(frozen=True)
class Transition:
    """``src --event--> dst``, taken when its guard holds (none: always)."""

    src: str
    event: str
    dst: str
    guard: str = ""

    def __str__(self) -> str:
        arrow = f"--{self.event}-->"
        return f"{self.src:>10} {arrow:<14} {self.dst:<11} {self.guard}".rstrip()


#: The lifecycle.  For a task's state and an event the first row whose
#: guard holds is taken; an event with no such row is an error.
TRANSITIONS = (
    Transition(OPEN, "lease", LEASED),
    Transition(RETRY_WAIT, "lease", LEASED, "backoff due"),
    Transition(LEASED, "complete", DONE),
    Transition(LEASED, "expire", OPEN, "lease budget left"),
    Transition(LEASED, "expire", LEASED, "lease budget spent"),
    Transition(LEASED, "fail", RETRY_WAIT, "attempts left"),
    Transition(LEASED, "fail", FATAL, "on_failure=raise"),
    Transition(LEASED, "fail", QUARANTINED, "quarantine stored"),
    Transition(LEASED, "fail", SKIPPED),
    Transition(OPEN, "abort", FATAL, "deadline passed"),
    Transition(LEASED, "abort", FATAL, "deadline passed"),
    Transition(RETRY_WAIT, "abort", FATAL, "deadline passed"),
)

_GUARDS: dict[str, Callable[["TaskBoard", "TaskEntry", float], bool]] = {
    "backoff due": lambda board, task, now: now >= task.due,
    "lease budget left": lambda board, task, now: board._lease_left(task, 1),
    "lease budget spent": lambda board, task, now: not board._lease_left(task, 1),
    # An attempt whose lease expired past the budget is lost for good.
    "attempts left": lambda board, task, now: (
        task.attempt < board.max_retries and board._lease_left(task, 0)
    ),
    "on_failure=raise": lambda board, task, now: board.on_failure == "raise",
    "quarantine stored": lambda board, task, now: (
        board.on_failure == "quarantine" and board.quarantine(task.payload)
    ),
    "deadline passed": lambda board, task, now: board.overdue(now),
}


@dataclass(eq=False)
class TaskEntry:
    """One task on the board, with the driver's opaque ``payload``."""

    task_id: str
    scenario: str
    run_indices: tuple
    payload: Any = None
    state: str = OPEN
    attempt: int = 1    # the current (or last failed) attempt
    expiries: int = 0   # lease expiries within the current attempt
    due: float = 0.0    # when a retry_wait task's backoff ends


class TaskBoard:
    """The lifecycle of one campaign's tasks.

    ``max_retries`` is the attempt budget per task; above 1 it also
    bounds each attempt's lease requeues (unbounded at 1).  A spent
    budget leads to ``on_failure``: ``"raise"`` (fatal), ``"skip"``, or
    ``"quarantine"`` (quarantined if the ``quarantine`` store, called
    with the task's payload, keeps it; skipped otherwise).  Retries wait
    out ``retry_policy`` backoff; ``campaign_timeout`` seconds after
    ``now`` the deadline passes.
    """

    def __init__(
        self,
        max_retries: int = 1,
        on_failure: str = "raise",
        retry_policy: Optional[RetryPolicy] = None,
        campaign_timeout: Optional[float] = None,
        now: float = 0.0,
        quarantine: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        if int(max_retries) < 1:
            raise ExperimentError(f"max_retries must be >= 1, got {max_retries}")
        if on_failure not in ON_FAILURE_MODES:
            raise ExperimentError(
                f"unknown on_failure mode {on_failure!r} "
                f"(expected one of {ON_FAILURE_MODES})"
            )
        if campaign_timeout is not None and campaign_timeout <= 0:
            raise ExperimentError(f"campaign_timeout must be > 0, got {campaign_timeout}")
        self.max_retries = int(max_retries)
        self.on_failure = on_failure
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.lease_budget = self.max_retries if self.max_retries > 1 else None
        self.campaign_timeout = campaign_timeout
        self.deadline = None if campaign_timeout is None else now + campaign_timeout
        self.quarantine = quarantine if quarantine is not None else (lambda payload: False)
        self.tasks: dict[str, TaskEntry] = {}  # every task added, by id
        self.records: list[RunFailure] = []    # every failure handed out
        self._live: dict[str, TaskEntry] = {}  # tasks not yet absorbed

    # -- queries ---------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any task is still open, leased or waiting to retry."""
        return bool(self._live)

    def overdue(self, now: float) -> bool:
        """Whether the campaign deadline has passed."""
        return self.deadline is not None and now >= self.deadline

    def next_timer(self, now: float) -> Optional[float]:
        """Seconds to the next retry due or the deadline (``None``: no timer)."""
        times = [t.due for t in self._live.values() if t.state == RETRY_WAIT]
        times += [] if self.deadline is None else [self.deadline]
        return max(min(times) - now, 0.0) if times else None

    def count(self, fate: str) -> int:
        """The number of failure records with ``fate``."""
        return sum(1 for record in self.records if record.fate == fate)

    @property
    def runs_abandoned(self) -> int:
        """Run indices given up with their tasks (skipped or quarantined)."""
        return sum(len(r.run_indices) for r in self.records if r.fate in (SKIPPED, QUARANTINED))

    # -- events ----------------------------------------------------------
    def add(self, task_id: str, scenario: str, run_indices: Sequence[int],
            payload: Any = None) -> None:
        """Put a new task on the board, open."""
        self.tasks[task_id] = self._live[task_id] = TaskEntry(
            task_id, scenario, tuple(run_indices), payload
        )

    def lease_ready(self, now: float) -> list:
        """Lease every open task and every retry whose backoff is due (its
        next attempt); returns their payloads in the order they were added."""
        ready = [
            task for task in self._live.values()
            if task.state == OPEN or (task.state == RETRY_WAIT and now >= task.due)
        ]
        for task in ready:
            if task.state == RETRY_WAIT:
                task.attempt, task.expiries = task.attempt + 1, 0
            self._fire(task, "lease", now)
        return [task.payload for task in ready]

    def complete(self, task_id: str) -> None:
        """The leased task's attempt succeeded."""
        self._fire(self.tasks[task_id], "complete", 0.0)

    def fail(self, task_id: str, exc: BaseException, now: float, at: float) -> RunFailure:
        """The leased task's attempt failed with ``exc``: its record, with
        the fate ``retried`` (waiting out its backoff), ``quarantined``,
        ``skipped`` or ``fatal``."""
        task = self.tasks[task_id]
        state = self._fire(task, "fail", now)
        if state == RETRY_WAIT:
            task.due = now + self.retry_policy.delay_s(task.attempt, task_id)
        failure = failure_from_exception(
            exc, task_id=task_id, scenario=task.scenario, run_indices=task.run_indices,
            attempt=task.attempt, worker=COORDINATOR, at=at,
        )
        return self._record(failure.with_fate("retried" if state == RETRY_WAIT else state))

    def expire(self, task_id: str, now: float, at: float) -> Optional[RunFailure]:
        """A lease expired (a stale spool claim).

        Within the attempt's lease budget the task is requeued — leased
        to open — and leased again at once, as the requeued spec is on
        offer; this returns ``None``, as it does for a task the board
        does not hold leased (which is simply requeued).  Past the budget
        the attempt is lost: the returned ``StaleLease`` record is its
        failure, to report through :meth:`fail`, which then spends no
        further attempt.
        """
        task = self._live.get(task_id)
        if task is None or task.state != LEASED:
            return None
        requeued = self._fire(task, "expire", now) == OPEN
        task.expiries += 1
        if requeued:
            self._fire(task, "lease", now)
            return None
        return self._failure(
            task, "StaleLease", f"lease expired {task.expiries} times "
            f"(stale-requeue budget {self.lease_budget} exhausted)", at,
        )

    def tolerate(self, task_id: str, failure: RunFailure) -> RunFailure:
        """Record a failure that leaves the task's state alone (a failed
        cache write of a run already in hand), stamped with its attempt."""
        attempt = self.tasks[task_id].attempt
        return self._record(replace(failure, attempt=attempt, fate="tolerated"))

    def abort(self, now: float, at: float) -> list[RunFailure]:
        """The deadline passed: every task still open, leased or waiting is
        fatal; returns one ``CampaignTimeout`` record per task."""
        message = (
            f"campaign deadline of {self.campaign_timeout:g}s "
            "expired with the task outstanding"
        )
        failures = []
        for task in list(self._live.values()):
            self._fire(task, "abort", now)
            failures.append(self._record(
                self._failure(task, "CampaignTimeout", message, at).with_fate(FATAL)
            ))
        return failures

    # -- the machine -----------------------------------------------------
    def _lease_left(self, task: TaskEntry, more: int) -> bool:
        """Whether ``more`` further expiries fit the attempt's lease budget."""
        return self.lease_budget is None or task.expiries + more <= self.lease_budget

    def _fire(self, task: TaskEntry, event: str, now: float) -> str:
        """Take the first row for the task's state and ``event`` whose guard
        holds; returns the new state."""
        for row in TRANSITIONS:
            if (row.src == task.state and row.event == event
                    and (not row.guard or _GUARDS[row.guard](self, task, now))):
                task.state = row.dst
                if row.dst in ABSORBING:  # the payload is never handed out again
                    del self._live[task.task_id]
                    task.payload = None
                return row.dst
        raise ExperimentError(f"task {task.task_id}: no {event!r} transition from {task.state!r}")

    @staticmethod
    def _failure(task: TaskEntry, kind: str, message: str, at: float) -> RunFailure:
        return RunFailure(
            task_id=task.task_id, scenario=task.scenario, run_indices=task.run_indices,
            attempt=task.attempt, worker=COORDINATOR, kind=kind, message=message, at=at,
        )

    def _record(self, failure: RunFailure) -> RunFailure:
        self.records.append(failure)
        return failure
