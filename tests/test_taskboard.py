"""The task lifecycle as a state machine, driven on a fake clock.

:class:`~repro.experiments.taskboard.TaskBoard` owns every task's state,
attempt count and lease-expiry count.  A hypothesis rule-based machine
adds, leases, completes, fails and expires tasks, advances the clock and
aborts at the deadline, and checks after every step that the board keeps
to :data:`~repro.experiments.taskboard.TRANSITIONS` and its budgets.
"""

from __future__ import annotations

import ast
import pathlib
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import ExperimentError
from repro.experiments import executor, taskboard
from repro.experiments.chaos import ChaosSchedule, activate, deactivate
from repro.experiments.design import MigrationScenario
from repro.experiments.faults import FAILURE_FATES, ON_FAILURE_MODES, RetryPolicy
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.experiments.taskboard import (
    ABSORBING,
    LEASED,
    OPEN,
    RETRY_WAIT,
    TRANSITIONS,
    TaskBoard,
)

#: The table's (src, event, dst) rows.
ROWS = {(row.src, row.event, row.dst) for row in TRANSITIONS}
STATES = {OPEN, LEASED, RETRY_WAIT} | ABSORBING
POLICY = RetryPolicy(base_s=1.0, cap_s=4.0, jitter=0.25)


class Lifecycle(RuleBasedStateMachine):
    """Random event sequences against a model of the budgets and fates."""

    @initialize(
        max_retries=st.integers(1, 4),
        on_failure=st.sampled_from(ON_FAILURE_MODES),
        store_keeps=st.booleans(),
        timeout=st.none() | st.floats(5.0, 60.0),
    )
    def setup(self, max_retries, on_failure, store_keeps, timeout):
        self.now = 0.0
        self.board = TaskBoard(
            max_retries, on_failure, POLICY, timeout, now=self.now,
            quarantine=lambda payload: store_keeps,
        )
        self.max_retries = max_retries
        self.budget = max_retries if max_retries > 1 else None
        self.store_keeps = store_keeps
        self.ledger = []         # every record the board handed out
        self.failed = 0          # failed attempts reported (fail + abort)
        self.due = {}            # task id -> when its backoff ends
        self.requeues = {}       # task id -> requeues in the current attempt
        self.lost = set()        # tasks whose attempt lost its lease budget
        self.absorbed = {}       # task id -> the absorbing state it reached

    def ids(self, *states):
        return sorted(i for i, task in self.board.tasks.items() if task.state in states)

    def state(self, task_id):
        return self.board.tasks[task_id].state

    # -- events ----------------------------------------------------------
    @rule()
    def add(self):
        task_id = f"t{len(self.board.tasks):03d}"
        self.board.add(task_id, "scenario", (len(self.board.tasks),), payload=task_id)
        self.requeues[task_id] = 0
        assert self.state(task_id) == OPEN

    @rule()
    def lease_ready(self):
        before = {i: task.state for i, task in self.board.tasks.items()}
        leased = self.board.lease_ready(self.now)
        ready = [
            i for i, state in before.items()
            if state == OPEN or (state == RETRY_WAIT and self.now >= self.due[i])
        ]
        assert leased == ready
        for task_id in leased:
            assert (before[task_id], "lease", LEASED) in ROWS
            assert self.state(task_id) == LEASED
            if before[task_id] == RETRY_WAIT:
                assert self.now >= self.due[task_id]  # never before the backoff
                self.requeues[task_id] = 0

    @precondition(lambda self: self.ids(LEASED))
    @rule(data=st.data())
    def complete(self, data):
        task_id = data.draw(st.sampled_from(self.ids(LEASED)))
        self.board.complete(task_id)
        assert (LEASED, "complete", self.state(task_id)) in ROWS
        self.lost.discard(task_id)

    @precondition(lambda self: self.ids(LEASED))
    @rule(data=st.data())
    def fail(self, data):
        task_id = data.draw(st.sampled_from(self.ids(LEASED)))
        attempt = self.board.tasks[task_id].attempt
        failure = self.board.fail(task_id, ValueError("boom"), self.now, self.now)
        self.ledger.append(failure)
        self.failed += 1
        after = self.state(task_id)
        assert (LEASED, "fail", after) in ROWS
        assert failure.attempt == attempt
        if task_id not in self.lost and attempt < self.max_retries:
            expected = "retried"
        elif self.board.on_failure == "raise":
            expected = "fatal"
        elif self.board.on_failure == "quarantine" and self.store_keeps:
            expected = "quarantined"
        else:
            expected = "skipped"
        assert failure.fate == expected
        if after == RETRY_WAIT:
            self.due[task_id] = self.now + POLICY.delay_s(attempt, task_id)
        self.lost.discard(task_id)

    @precondition(lambda self: set(self.ids(LEASED)) - self.lost)
    @rule(data=st.data())
    def expire(self, data):
        task_id = data.draw(st.sampled_from(sorted(set(self.ids(LEASED)) - self.lost)))
        lost = self.board.expire(task_id, self.now, self.now)
        assert self.state(task_id) == LEASED
        if lost is None:  # requeued, and leased again at once
            assert (LEASED, "expire", OPEN) in ROWS and (OPEN, "lease", LEASED) in ROWS
            self.requeues[task_id] += 1
        else:
            assert (LEASED, "expire", LEASED) in ROWS
            assert self.budget is not None and self.requeues[task_id] == self.budget
            assert lost.kind == "StaleLease" and lost.task_id == task_id
            self.lost.add(task_id)

    @rule(dt=st.floats(0.0, 10.0))
    def tick(self, dt):
        timer = self.board.next_timer(self.now)
        assert timer is None or timer >= 0.0
        self.now += dt

    @precondition(lambda self: self.board.overdue(self.now))
    @rule()
    def abort(self):
        live = self.ids(OPEN, LEASED, RETRY_WAIT)
        failures = self.board.abort(self.now, self.now)
        assert [f.task_id for f in failures] == live
        assert {(f.kind, f.fate) for f in failures} <= {("CampaignTimeout", "fatal")}
        for task_id in live:
            assert self.state(task_id) == "fatal"
        self.ledger.extend(failures)
        self.failed += len(failures)

    @precondition(lambda self: self.ids(*ABSORBING))
    @rule(data=st.data())
    def poke_absorbed(self, data):
        task_id = data.draw(st.sampled_from(self.ids(*ABSORBING)))
        state, records = self.state(task_id), len(self.board.records)
        with pytest.raises(ExperimentError, match="no 'complete' transition"):
            self.board.complete(task_id)
        with pytest.raises(ExperimentError, match="no 'fail' transition"):
            self.board.fail(task_id, ValueError("late"), self.now, self.now)
        assert self.board.expire(task_id, self.now, self.now) is None  # just requeued
        assert self.state(task_id) == state
        assert len(self.board.records) == records

    # -- invariants ------------------------------------------------------
    @invariant()
    def every_task_in_exactly_one_state(self):
        assert sum(len(self.ids(state)) for state in STATES) == len(self.board.tasks)
        live = [i for i, task in self.board.tasks.items() if task.state not in ABSORBING]
        assert self.board.active == bool(live)

    @invariant()
    def absorbing_states_are_final(self):
        for task_id, state in self.absorbed.items():
            assert self.state(task_id) == state
        self.absorbed.update((i, self.state(i)) for i in self.ids(*ABSORBING))

    @invariant()
    def budgets_hold(self):
        for task_id, task in self.board.tasks.items():
            assert 1 <= task.attempt <= self.max_retries
            if self.budget is not None:
                assert self.requeues[task_id] <= self.budget
                assert task.expiries <= self.budget + 1

    @invariant()
    def every_failed_attempt_reaches_the_ledger_once(self):
        assert self.board.records == self.ledger
        assert len(self.ledger) == self.failed
        assert all(record.fate in FAILURE_FATES for record in self.ledger)


TestLifecycle = Lifecycle.TestCase
TestLifecycle.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


def test_retry_waits_for_its_backoff():
    board = TaskBoard(max_retries=2, retry_policy=RetryPolicy(base_s=2.0, jitter=0.0))
    board.add("t", "scenario", (0,), payload="t")
    assert board.lease_ready(now=10.0) == ["t"]
    failure = board.fail("t", ValueError("boom"), now=10.0, at=1_760_000_000.0)
    assert (failure.fate, failure.at) == ("retried", 1_760_000_000.0)
    assert board.next_timer(10.5) == 1.5
    assert board.lease_ready(now=11.9) == []
    assert board.lease_ready(now=12.0) == ["t"]
    assert board.tasks["t"].attempt == 2
    assert board.fail("t", ValueError("boom"), now=13.0, at=13.0).fate == "fatal"


def test_lease_budget_requeues_then_loses_the_attempt():
    board = TaskBoard(max_retries=3, on_failure="skip")
    board.add("t", "scenario", (0, 1), payload="t")
    board.lease_ready(now=0.0)
    assert [board.expire("t", now=1.0, at=1.0) for _ in range(3)] == [None] * 3
    lost = board.expire("t", now=2.0, at=2.0)
    assert (lost.kind, lost.worker, lost.attempt) == ("StaleLease", "coordinator", 1)
    assert lost.message == "lease expired 4 times (stale-requeue budget 3 exhausted)"
    failure = board.fail("t", ValueError(lost.message), now=2.0, at=2.0)
    assert (failure.fate, failure.attempt) == ("skipped", 1)
    assert board.runs_abandoned == 2


def test_requeues_are_unbounded_at_the_default_budget():
    board = TaskBoard()
    board.add("t", "scenario", (0,))
    board.lease_ready(now=0.0)
    assert all(board.expire("t", now=1.0, at=1.0) is None for _ in range(50))
    assert board.tasks["t"].state == LEASED


def test_unknown_task_expiry_is_a_plain_requeue():
    board = TaskBoard(max_retries=2)
    assert board.expire("another-campaign", now=0.0, at=0.0) is None
    assert board.tasks == {} and board.records == []


def test_board_imports_no_io_process_or_clock_module():
    """The board is pure: it reads no clock and touches no file, thread
    or process (in the style of ``tests/test_dependencies.py``)."""
    tree = ast.parse(pathlib.Path(taskboard.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    banned = ("os", "time", "pathlib", "threading", "concurrent", "repro.io")
    assert imported and not {
        name for name in imported
        if any(name == b or name.startswith(b + ".") for b in banned)
    }


class _SteppedClock:
    """Stands in for the executor's ``time`` module.

    The monotonic clock moves only when the executor sleeps; the wall
    clock reads monotonic time plus an offset that steps back one hour
    at the first sleep, as an NTP correction would.
    """

    WALL0 = 1_760_000_000.0
    perf_counter = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.mono, self.offset = 1000.0, self.WALL0 - 1000.0

    def monotonic(self) -> float:
        return self.mono

    def time(self) -> float:
        return self.mono + self.offset

    def sleep(self, seconds: float) -> None:
        if self.offset == self.WALL0 - 1000.0:
            self.offset -= 3600.0
        self.mono += seconds


def _clocked_campaign(monkeypatch, chaos: str, **executor_options):
    """One two-run scenario on the serial backend under ``chaos``, the
    executor reading :class:`_SteppedClock`; returns the clock, the
    executor and the campaign's exception (or ``None``)."""
    clock = _SteppedClock()
    monkeypatch.setattr(executor, "time", clock)
    runner = ScenarioRunner(seed=5, settings=RunnerSettings(
        min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
        check_interval_s=1.0,
    ))
    campaign = executor.CampaignExecutor(runner, backend="serial", **executor_options)
    scenario = MigrationScenario("CPULOAD-SOURCE", "board/nl/0vm", live=False, load_vm_count=0)
    activate(ChaosSchedule.from_spec(chaos))
    try:
        campaign.run_campaign([scenario], min_runs=2, max_runs=2)
    except ExperimentError as exc:
        return clock, campaign, exc
    finally:
        deactivate()
    return clock, campaign, None


def test_wall_clock_step_does_not_move_the_backoff(monkeypatch):
    """The retry runs after its 0.5 s backoff of monotonic time, although
    the wall clock stepped back an hour meanwhile; the record keeps the
    wall-clock stamp of the failure."""
    clock, campaign, error = _clocked_campaign(
        monkeypatch, "seed=1;execute:crash:max=1",
        max_retries=2, retry_policy=RetryPolicy(base_s=0.5, jitter=0.0),
    )
    assert error is None
    assert clock.mono - 1000.0 == pytest.approx(0.5)
    (failure,) = campaign.ledger.records
    assert (failure.fate, failure.at) == ("retried", _SteppedClock.WALL0)


def test_wall_clock_step_does_not_move_the_deadline(monkeypatch):
    """The campaign deadline passes 2 s of monotonic time after the start,
    although the wall clock stepped back an hour meanwhile."""
    clock, campaign, error = _clocked_campaign(
        monkeypatch, "seed=1;execute:crash",
        max_retries=5, retry_policy=RetryPolicy(base_s=10.0, jitter=0.0),
        campaign_timeout=2.0,
    )
    assert "campaign deadline of 2s exceeded" in str(error)
    assert clock.mono - 1000.0 == pytest.approx(2.0)
    retried, timeout = campaign.ledger.records
    assert retried.at == _SteppedClock.WALL0
    assert (timeout.kind, timeout.at) == ("CampaignTimeout", clock.time())
