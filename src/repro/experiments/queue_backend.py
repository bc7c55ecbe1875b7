"""Distributed campaign backend: a file-based work queue over a shared dir.

The wave scheduler of :class:`~repro.experiments.executor.CampaignExecutor`
only needs ``submit()`` plus completed-future semantics, so a campaign can
span machines with nothing more exotic than a directory both sides can
see (local disk for co-located workers, NFS for a cluster):

* the **coordinator** (:class:`QueueBackend`) serialises each
  :class:`~repro.experiments.executor.RunTask` (one or more runs of one
  scenario) to a ``wavm3-taskspec/3`` JSON spec file in
  ``<spool>/tasks/`` and then polls the shared content-addressed
  :class:`~repro.experiments.executor.RunCache` for the result — the
  variance-stopping rule keeps running centrally, so results stay
  bit-identical to the serial path;
* any number of **workers** (:func:`run_worker`, CLI subcommand
  ``campaign-worker``) claim specs by atomically renaming them into
  ``<spool>/claims/`` (``os.rename`` — atomic on POSIX, including NFS),
  execute them through the same pure
  :func:`~repro.experiments.executor.execute_batch` path every other
  backend uses, and deposit results, one cache file per run, into the
  shared cache.

Fault tolerance is lease-based: a worker heartbeats its claim file's
mtime while executing, and the coordinator reports each claim whose
heartbeat is older than ``stale_timeout`` (worker died mid-task) to the
campaign's :class:`~repro.experiments.taskboard.TaskBoard`.  The board
decides: the claim is renamed back into ``tasks/`` for another worker,
or — once the attempt's lease budget is spent — the attempt fails.  A
corrupt result file is deleted and its task resubmitted rather than
returned.  Because every run is deterministic given its spec,
re-execution after any of these failures reproduces the original result
exactly.

Workers also publish **live progress** through the spool: after every
completed run they append a ``wavm3-progress/1`` NDJSON line to their own
sidecar under ``progress/`` (task id, runs completed, samples/sec, wall
time).  The stream is strictly observational — nothing reads it to make
scheduling decisions — but ``wavm3 campaign-status`` (and ``--follow``)
renders it, and the coordinator folds it into the campaign summary.

Spool layout::

    <spool>/
      tasks/      open task specs (one JSON file per task)
      claims/     specs claimed by a worker; mtime = worker heartbeat
      failed/     task failures a worker reported (error + traceback JSON)
      quarantine/ specs parked after an exhausted retry budget
                  (``on_failure="quarantine"``) — inspect and re-spool by hand
      workers/    one heartbeat file per live worker (``campaign-status``)
      progress/   per-worker NDJSON progress sidecars (live campaign progress)
      stop        sentinel: workers drain and exit when it appears

Abandoned campaigns leave all of this behind; :func:`spool_gc` (CLI:
``wavm3 campaign --gc-spool``) removes artifacts older than a grace age,
with a dry-run mode.

See ``docs/parallel_campaigns.md`` ("Distributed campaigns") for the
operational guide.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Collection, Optional, Set, Union

from repro.errors import ExperimentError
from repro.experiments.chaos import ChaosError, chaos_trip
from repro.experiments.executor import (
    ExecutorBackend,
    RunCache,
    RunTask,
    execute_batch,
    process_worker_id,
)
from repro.experiments.faults import (
    RunFailure,
    TaskFailure,
    run_with_deadline,
    traceback_digest,
)
from repro.experiments.results import ProgressEvent
from repro.experiments.taskboard import TaskBoard
from repro.io import (
    PersistenceError,
    append_record,
    load_records,
    load_run_result,
    load_task_spec,
    save_task_spec,
    write_atomic,
)

__all__ = [
    "QueueBackend",
    "QueueStats",
    "WorkerStats",
    "run_worker",
    "spool_gc",
    "spool_status",
]

#: Schema tag of the ``failed/`` error records.
TASK_FAILURE_SCHEMA = "wavm3-taskfailure/1"

#: Schema tag of the campaign-status documents (:func:`spool_status`).
STATUS_SCHEMA = "wavm3-campaign-status/1"

#: Seconds between the coordinator's checks of ``claims/`` for a change
#: (:meth:`QueueBackend.wait`).
_CLAIMS_TICK_S = 0.01


class _Spool:
    """Paths of one spool directory; creates the layout on construction
    (unless ``create=False`` — read-only inspection)."""

    def __init__(self, root: Union[str, pathlib.Path], create: bool = True) -> None:
        self.root = pathlib.Path(root)
        self.tasks = self.root / "tasks"
        self.claims = self.root / "claims"
        self.failed = self.root / "failed"
        self.quarantine = self.root / "quarantine"
        self.workers = self.root / "workers"
        self.progress = self.root / "progress"
        self.stop = self.root / "stop"
        if create:
            for directory in (
                self.tasks, self.claims, self.failed, self.quarantine,
                self.workers, self.progress,
            ):
                directory.mkdir(parents=True, exist_ok=True)

    def task_path(self, task_id: str) -> pathlib.Path:
        return self.tasks / f"{task_id}.json"

    def claim_path(self, task_id: str) -> pathlib.Path:
        return self.claims / f"{task_id}.json"

    def failure_path(self, task_id: str) -> pathlib.Path:
        return self.failed / f"{task_id}.json"

    def quarantine_path(self, task_id: str) -> pathlib.Path:
        return self.quarantine / f"{task_id}.json"


def _dir_signature(directory: pathlib.Path) -> Optional[tuple[int, int]]:
    """What changes when an entry is added to, removed from or renamed
    into or out of ``directory``: its mtime and inode (``None`` if it
    cannot be read).

    A coarse-timestamp filesystem can stamp two changes with one mtime,
    and an NFS client may serve a cached one, so a reader that waits on
    the signature also rescans on a slower safety-net cadence.
    """
    try:
        stat = os.stat(directory)
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_ino


def _write_json_atomic(path: pathlib.Path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=1).encode("utf-8"))


def _measure_spool_skew(root: pathlib.Path) -> float:
    """File-server clock minus local clock, in seconds.

    Spool freshness math compares local ``time.time()`` against mtimes
    the *file server* stamped (worker heartbeats, claim leases).  On NFS
    those clocks can disagree, making live claims look abandoned (skewed
    requeue → duplicate execution) or live artifacts look GC-able.  A
    freshly-touched probe file's mtime *is* the file-server clock, so
    the difference calibrates every age computation.

    Local filesystems stamp with the local clock, so the skew is ~0
    there and the correction is a no-op.  Any OSError (read-only spool,
    probe raced away) degrades to 0 — the uncorrected behaviour.
    """
    probe = root / f".clock-probe-{os.getpid()}-{threading.get_ident()}"
    try:
        probe.touch()
        try:
            return probe.stat().st_mtime - time.time()
        finally:
            probe.unlink(missing_ok=True)
    except OSError:
        return 0.0


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------
@dataclass
class QueueStats:
    """Accounting of one coordinator's queue traffic."""

    tasks_submitted: int = 0   # specs written into the spool
    tasks_requeued: int = 0    # stale claims returned to the open queue
    tasks_resubmitted: int = 0 # lost/corrupt tasks re-spooled
    corrupt_results: int = 0   # cache files that failed validation
    tasks_quarantined: int = 0 # specs parked in quarantine/


class _QueueFuture(Future):
    """A pending queue task; resolved by the coordinator's poll loop."""

    def __init__(self, task: RunTask, spool: _Spool, cache: RunCache) -> None:
        super().__init__()
        self.task = task
        self.task_id = task_id = task.task_id
        # Every file a poll reads, built once.
        self.spec = spool.task_path(task_id)
        self.claim = spool.claim_path(task_id)
        self.failure = spool.failure_path(task_id)
        #: The cache file of each covered run, in run order.
        self.paths = [cache._run_path(task.key, i) for i in task.run_indices]
        #: The result was produced into the shared cache by a worker, so
        #: the executor must not redundantly re-write it.
        self.result_in_cache = True


class QueueBackend(ExecutorBackend):
    """Coordinator end of the file-based distributed work queue.

    Parameters
    ----------
    spool_dir:
        Directory shared with the workers (created if missing).
    cache:
        The shared :class:`RunCache` workers deposit results into; the
        coordinator polls it for completions.
    poll_interval:
        Safety-net cadence of the completion polls in :meth:`wait`, in
        seconds.  A worker unlinks its claim only after its last deposit
        or its failure record, so :meth:`wait` also polls as soon as
        ``claims/`` changes (checked every 10 ms).
    stale_timeout:
        A claim whose heartbeat mtime is older than this is considered
        abandoned and requeued.  Must comfortably exceed the workers'
        heartbeat interval (clock skew on NFS counts against it too).
    stop_workers_on_shutdown:
        Write the ``stop`` sentinel when the campaign finishes, telling
        workers to exit instead of idling for more work.

    A stale claim is reported to :attr:`board`, the executor's task
    board for the campaign (on its own, an empty board: every stale
    claim is requeued).
    """

    name = "queue"

    def __init__(
        self,
        spool_dir: Union[str, pathlib.Path],
        cache: RunCache,
        poll_interval: float = 0.2,
        stale_timeout: float = 60.0,
        stop_workers_on_shutdown: bool = False,
    ) -> None:
        if poll_interval <= 0:
            raise ExperimentError(f"poll_interval must be positive, got {poll_interval}")
        if stale_timeout <= 0:
            raise ExperimentError(f"stale_timeout must be positive, got {stale_timeout}")
        self.spool = _Spool(spool_dir)
        self.cache = cache
        self.poll_interval = float(poll_interval)
        self.stale_timeout = float(stale_timeout)
        self.stop_workers_on_shutdown = bool(stop_workers_on_shutdown)
        self.board = TaskBoard()
        #: Failure records of attempts whose lease budget the board found
        #: spent, by task id, until their future is polled.
        self._lost: dict[str, RunFailure] = {}
        self.stats = QueueStats()
        #: Task ids submitted by this coordinator: drain_progress uses it
        #: to keep sidecar events of *other* campaigns sharing the spool
        #: out of this campaign's summary.
        self._session_task_ids: Set[str] = set()
        # Spool clock-skew calibration, re-measured at most once per
        # poll interval (see _measure_spool_skew).
        self._skew = 0.0
        self._skew_measured_at: Optional[float] = None

    # -- clock-skew calibration ------------------------------------------
    def _spool_now(self) -> float:
        """The current time *on the file server's clock*.

        All freshness decisions subtract spool mtimes from this value
        (never from raw ``time.time()``), so coordinator/file-server
        clock skew cancels out.  The probe is memoized for one poll
        interval — one extra stat per poll, not per file.
        """
        mono = time.monotonic()
        if (
            self._skew_measured_at is None
            or mono - self._skew_measured_at >= self.poll_interval
        ):
            self._skew = _measure_spool_skew(self.spool.root)
            self._skew_measured_at = mono
        return time.time() + self._skew

    # -- protocol --------------------------------------------------------
    def submit(self, task: RunTask) -> Future:
        if task.key is None:
            raise ExperimentError("queue tasks need a cache key")
        future = _QueueFuture(task, self.spool, self.cache)
        # A failure record from an earlier campaign must not resolve the
        # fresh attempt, so clear it before the spec becomes claimable.
        future.failure.unlink(missing_ok=True)
        save_task_spec(task, future.spec)
        self.stats.tasks_submitted += 1
        # Workers announce progress per *run*, so a task owns one
        # progress id per covered index.
        self._session_task_ids.update(task.run_id(i) for i in task.run_indices)
        return future

    def drain_progress(self) -> list:
        """Worker progress sidecar events belonging to this campaign.

        Reads every ``progress/*.ndjson`` sidecar and keeps the events
        whose task id was submitted by this coordinator (spools are
        reusable, so sidecars may also hold lines from earlier
        campaigns).  A stale-requeued task re-executed by a second worker
        announces twice; only the latest announcement per task survives,
        so the campaign summary counts each run exactly once.
        """
        events = []
        for sidecar in sorted(self.spool.progress.glob("*.ndjson")):
            events.extend(
                e for e in load_records(ProgressEvent, sidecar)
                if e.task_id in self._session_task_ids
            )
        events.sort(key=lambda e: e.at)
        latest = {e.task_id: e for e in events}
        return sorted(latest.values(), key=lambda e: e.at)

    def wait(
        self, pending: Collection[Future], timeout: Optional[float] = None
    ) -> Set[Future]:
        started = time.monotonic()
        seen = None  # the claims/ signature read before the last poll
        due = started
        while True:
            signature = _dir_signature(self.spool.claims)
            now = time.monotonic()
            if signature != seen or now >= due:
                seen, due = signature, now + self.poll_interval
                self._requeue_stale_claims()
                done = {future for future in pending if self._poll(future)}
                if done:
                    return done
            if (
                timeout is not None
                and time.monotonic() - started + _CLAIMS_TICK_S > timeout
            ):
                return set()  # the scheduler has timers to service
            time.sleep(_CLAIMS_TICK_S)

    def shutdown(self) -> None:
        if self.stop_workers_on_shutdown:
            self.spool.stop.touch()

    def quarantine(self, task: RunTask) -> bool:
        """Park a budget-exhausted task's spec in ``quarantine/``.

        The spec is preserved verbatim for post-mortem inspection (and
        manual re-spooling into ``tasks/``); its open/claimed copies are
        removed so no worker picks it up again.  The ``failed/`` record
        of the final worker-reported attempt is left in place —
        ``spool_status()`` reports both.
        """
        save_task_spec(task, self.spool.quarantine_path(task.task_id))
        self.spool.task_path(task.task_id).unlink(missing_ok=True)
        self.spool.claim_path(task.task_id).unlink(missing_ok=True)
        self.stats.tasks_quarantined += 1
        return True

    # -- internals -------------------------------------------------------
    def _poll(self, future: _QueueFuture) -> bool:
        """Resolve a future from the shared cache / failure records."""
        task = future.task
        lost = self._lost.pop(future.task_id, None)
        indices = task.run_indices
        # Whether the spec is still open or claimed, read *before* the
        # results: a worker unlinks its claim only after its last deposit
        # or its failure record, so the outcome of a task found neither
        # open nor claimed here is visible below -- or was lost.
        spooled = future.spec.exists() or future.claim.exists()
        # A task resolves only once *every* covered run is deposited and
        # valid.  Nothing is loaded before all are present, so a run of
        # a half-deposited task is unpickled once, not at every poll; a
        # corrupt run invalidates just that one cache file.
        if all(path.exists() for path in future.paths):
            runs = []
            for index, run_path in zip(indices, future.paths):
                try:
                    run = load_run_result(run_path)
                except PersistenceError:
                    run = None
                if (
                    run is not None
                    and run.scenario == task.scenario
                    and run.run_index == index
                ):
                    runs.append(run)
                    continue
                # Corrupt or mismatched result: discard it and recompute —
                # a bad cache file must never reach the campaign.
                run_path.unlink(missing_ok=True)
                self.stats.corrupt_results += 1
            if len(runs) == len(indices):
                future.set_result(runs)
                return True
        if lost is not None:
            future.set_exception(TaskFailure(
                f"queue task {future.task_id} failed: {lost.message}", failure=lost
            ))
            return True
        if future.failure.exists():
            record = _read_failure_record(future.failure)
            message = record.get("error") or "unknown worker failure"
            # Structured failure for the coordinator's retry budget: the
            # record's "kind" field is written by current workers; older
            # records degrade to a parsed exception-class prefix.
            head = message.split(":", 1)[0]
            kind = record.get("kind") or (
                head if head.isidentifier() else "WorkerFailure"
            )
            run_failure = RunFailure(
                task_id=future.task_id,
                scenario=task.scenario.label,
                run_indices=tuple(indices),
                attempt=1,  # the executor stamps its own attempt count
                worker=record.get("worker") or "?",
                kind=kind,
                message=message,
                traceback_digest=traceback_digest(record.get("traceback")),
                at=time.time(),
            )
            future.set_exception(
                TaskFailure(
                    f"queue task {future.task_id} failed: {message}",
                    failure=run_failure,
                )
            )
            return True
        # No result and no failure, though the spec was gone before either
        # was looked for (a corrupt result deleted above, or spool
        # tampering): respool it so the run is recomputed.
        if not spooled:
            save_task_spec(task, future.spec)
            self.stats.tasks_resubmitted += 1
        return False

    def _requeue_stale_claims(self) -> None:
        """Report claims with an expired heartbeat to the board.

        The board either requeues a claim (it is renamed back into
        ``tasks/``) or, once the attempt's lease budget is spent, fails
        the attempt: the claim is dropped and the task's future fails
        with the board's ``StaleLease`` record at its next poll.
        """
        now = self._spool_now()
        for claim in self.spool.claims.glob("*.json"):
            try:
                if max(now - claim.stat().st_mtime, 0.0) <= self.stale_timeout:
                    continue
            except OSError:
                continue  # completed between glob and stat
            lost = self.board.expire(claim.stem, time.monotonic(), at=time.time())
            if lost is not None:
                self._lost[claim.stem] = lost
                claim.unlink(missing_ok=True)
                continue
            try:
                claim.rename(self.spool.tasks / claim.name)
                self.stats.tasks_requeued += 1
            except OSError:
                continue  # another coordinator beat us to it


def _read_failure_record(path: pathlib.Path) -> dict:
    """The ``failed/`` record at ``path``, validated.

    A worker writes a JSON object whose fields are strings or null.  A
    file that does not parse, is not an object or has a mistyped field
    reads as ``{"error": "unreadable worker failure record"}``.
    """
    try:
        record = json.loads(path.read_bytes())
    except (ValueError, OSError):  # invalid JSON or UTF-8, or unreadable
        record = None
    if isinstance(record, dict) and all(
        isinstance(record.get(name), (str, type(None)))
        for name in ("task_id", "worker", "error", "kind", "traceback")
    ):
        return record
    return {"error": "unreadable worker failure record"}


def spool_status(
    spool_dir: Union[str, pathlib.Path],
    stale_timeout: float = 60.0,
    worker_fresh_s: float = 15.0,
) -> dict:
    """Summarise a spool directory for ``wavm3 campaign-status``.

    A strictly read-only scan — nothing is claimed, requeued, deleted or
    even created, so it is safe to run against a live campaign from any
    machine that can see the spool (and usable post-mortem on an
    abandoned one).

    Parameters
    ----------
    spool_dir:
        The spool directory to inspect.
    stale_timeout:
        Claims whose heartbeat mtime is older than this are reported as
        stale (the coordinator would requeue them).
    worker_fresh_s:
        Worker heartbeat files younger than this count as live.

    Returns
    -------
    dict
        Counts and details: ``tasks_open``, ``tasks_leased``,
        ``leases_stale``, ``tasks_failed``, ``tasks_quarantined`` (plus
        the ``quarantined`` task-id list), ``workers``/``workers_live``,
        ``stopping``, a ``failures`` list of the ``failed/`` records
        (task id, worker, error, kind), plus live progress: ``progress`` (one
        entry per worker sidecar — runs completed, samples/sec, last
        task, age of the last announcement) and ``progress_events`` (the
        total event count across sidecars).

    Raises
    ------
    ExperimentError
        If ``spool_dir`` does not exist — a typo'd path must not report
        an idle, healthy campaign.
    """
    root = pathlib.Path(spool_dir)
    if not root.is_dir():
        raise ExperimentError(f"spool directory {root} does not exist")
    spool = _Spool(root, create=False)
    now = time.time()

    def _ages(directory: pathlib.Path) -> list[tuple[str, float]]:
        entries = []
        for path in sorted(directory.glob("*.json")):
            try:
                entries.append((path.stem, now - path.stat().st_mtime))
            except OSError:
                continue  # vanished between glob and stat
        return entries

    claims = _ages(spool.claims)
    workers = [
        {"worker": name, "age_s": round(age, 3), "live": age <= worker_fresh_s}
        for name, age in _ages(spool.workers)
    ]
    progress = []
    progress_events = 0
    for sidecar in sorted(spool.progress.glob("*.ndjson")) if spool.progress.is_dir() else []:
        events = load_records(ProgressEvent, sidecar)
        if not events:
            continue
        progress_events += len(events)
        last = events[-1]
        progress.append(
            {
                "worker": last.worker,
                "runs_completed": last.runs_completed,
                "samples_per_s": round(last.samples_per_s, 1),
                "last_task": f"{last.scenario}#{last.run_index}",
                "age_s": round(max(now - last.at, 0.0), 3),
            }
        )
    failures = []
    for path in sorted(spool.failed.glob("*.json")):
        record = _read_failure_record(path)
        failures.append(
            {
                "task_id": record.get("task_id") or path.stem,
                "worker": record.get("worker") or "?",
                "error": record.get("error") or "unknown worker failure",
                "kind": record.get("kind") or "?",
            }
        )
    quarantined = (
        sorted(path.stem for path in spool.quarantine.glob("*.json"))
        if spool.quarantine.is_dir()
        else []
    )
    return {
        "schema": STATUS_SCHEMA,
        "backend": "queue",
        "spool_dir": str(spool.root),
        "tasks_open": len(list(spool.tasks.glob("*.json"))),
        "tasks_leased": len(claims),
        "leases_stale": sum(1 for _, age in claims if age > stale_timeout),
        "tasks_failed": len(failures),
        "failures": failures,
        "tasks_quarantined": len(quarantined),
        "quarantined": quarantined,
        "workers": workers,
        "workers_live": sum(1 for w in workers if w["live"]),
        "progress": progress,
        "progress_events": progress_events,
        "stopping": spool.stop.exists(),
    }


# ---------------------------------------------------------------------------
# Spool janitor
# ---------------------------------------------------------------------------
def spool_gc(
    spool_dir: Union[str, pathlib.Path],
    max_age_s: float = 3600.0,
    dry_run: bool = False,
) -> dict:
    """Garbage-collect artifacts of abandoned campaigns from a spool.

    Spools are reusable across campaigns, so a crashed coordinator (or a
    worker that never came back) leaves debris behind: unclaimed task
    specs no coordinator is polling for, claims whose lease died with
    their worker, failure records, worker heartbeats, progress sidecars,
    and the ``stop`` sentinel.  This removes every such file whose mtime
    is older than ``max_age_s`` — young files are presumed to belong to a
    live campaign and are left alone.  CLI:
    ``wavm3 campaign --gc-spool --spool-dir …`` (with ``--dry-run``).

    Parameters
    ----------
    spool_dir:
        The spool directory to clean.
    max_age_s:
        Grace age in seconds; files younger than this survive.  ``0``
        cleans everything (only safe once the campaign is known dead).
    dry_run:
        Report what *would* be removed without touching anything.

    Returns
    -------
    dict
        Per-category removal counts (``tasks``, ``claims``, ``failures``,
        ``quarantine``, ``workers``, ``progress``, ``stop``),
        ``removed_total``, the
        ``files`` list (spool-relative paths, sorted), and the echoed
        ``dry_run`` flag.

    Raises
    ------
    ExperimentError
        If ``spool_dir`` does not exist.
    """
    root = pathlib.Path(spool_dir)
    if not root.is_dir():
        raise ExperimentError(f"spool directory {root} does not exist")
    if max_age_s < 0:
        raise ExperimentError(f"max_age_s must be non-negative, got {max_age_s}")
    spool = _Spool(root, create=False)
    # Ages are judged on the file server's clock (mtimes), so calibrate
    # once for the whole sweep — a skewed coordinator clock must not GC
    # a live campaign's artifacts.
    now = time.time() + _measure_spool_skew(spool.root)
    counts = {
        "tasks": 0, "claims": 0, "failures": 0, "quarantine": 0,
        "workers": 0, "progress": 0, "stop": 0,
    }
    removed: list[str] = []

    def _sweep(directory: pathlib.Path, pattern: str, category: str) -> None:
        if not directory.is_dir():
            return
        for path in sorted(directory.glob(pattern)):
            try:
                if max(now - path.stat().st_mtime, 0.0) < max_age_s:
                    continue
                if not dry_run:
                    path.unlink()
            except OSError:
                continue  # claimed/completed underneath us: not ours to count
            counts[category] += 1
            removed.append(str(path.relative_to(spool.root)))

    _sweep(spool.tasks, "*.json", "tasks")
    _sweep(spool.claims, "*.json", "claims")
    _sweep(spool.failed, "*.json", "failures")
    _sweep(spool.quarantine, "*.json", "quarantine")
    _sweep(spool.workers, "*.json", "workers")
    _sweep(spool.progress, "*.ndjson", "progress")
    # Orphaned atomic-write temp files (writer died mid-rename).  The
    # progress dir gets them too (worker sidecar flushes), and the stop
    # sentinel's temp lands at the spool root.
    for directory, category in (
        (spool.tasks, "tasks"), (spool.claims, "claims"),
        (spool.failed, "failures"), (spool.quarantine, "quarantine"),
        (spool.workers, "workers"), (spool.progress, "progress"),
    ):
        _sweep(directory, "*.tmp", category)
    _sweep(spool.root, "stop.*.tmp", "stop")
    try:
        if spool.stop.exists() and max(now - spool.stop.stat().st_mtime, 0.0) >= max_age_s:
            if not dry_run:
                spool.stop.unlink()
            counts["stop"] += 1
            removed.append("stop")
    except OSError:
        pass
    return {
        **counts,
        "removed_total": sum(counts.values()),
        "files": removed,
        "dry_run": bool(dry_run),
    }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
@dataclass
class WorkerStats:
    """Accounting of one :func:`run_worker` invocation."""

    claimed: int = 0    # specs successfully renamed into claims/
    executed: int = 0   # runs actually simulated
    cached: int = 0     # claims satisfied by an existing cache entry
    failed: int = 0     # claims that ended in a failure record


class _ClaimHeartbeat(threading.Thread):
    """Touches a claim file's mtime so the coordinator sees a live lease."""

    def __init__(self, path: pathlib.Path, interval_s: float) -> None:
        super().__init__(daemon=True)
        self._path = path
        self._interval_s = interval_s
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._interval_s):
            try:
                chaos_trip("heartbeat", tag=self._path.stem)
                os.utime(self._path)
            except ChaosError:
                return  # injected beat loss: the lease goes stale and is requeued
            except OSError:
                return  # claim vanished (task finished or was requeued)

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=self._interval_s + 1.0)


def _claim_next_task(spool: _Spool) -> Optional[pathlib.Path]:
    """Atomically claim the lexicographically first open task, if any.

    ``os.rename`` either succeeds exactly once across all racing workers
    or raises ``FileNotFoundError`` for the losers — no locks needed.
    """
    for path in sorted(spool.tasks.glob("*.json")):
        target = spool.claims / path.name
        try:
            path.rename(target)
        except OSError:
            continue  # lost the race for this spec
        try:
            # rename preserves mtime, so a spec that sat in the queue longer
            # than the stale timeout would look abandoned the instant it is
            # claimed: start the lease fresh.
            os.utime(target)
        except OSError:
            # The rename already succeeded, so this claim is ours.  A
            # failed utime usually means the coordinator requeued the
            # "abandoned" spec in the race window (the claim file moved
            # back) — skip it then.  But if the claim file is still in
            # place (e.g. a transient filesystem error refreshing the
            # timestamp), abandoning a successfully claimed spec would
            # leak it until the stale scan: execute it anyway, and let
            # the heartbeat bring the lease fresh.
            if not target.exists():
                continue
        return target
    return None


def _record_failure(
    spool: _Spool, task_id: str, claim: pathlib.Path, worker_id: str,
    error: str, trace: Optional[str] = None, kind: Optional[str] = None,
) -> None:
    _write_json_atomic(
        spool.failure_path(task_id),
        {
            "schema": TASK_FAILURE_SCHEMA,
            "task_id": task_id,
            "worker": worker_id,
            "error": error,
            "kind": kind,
            "traceback": trace,
        },
    )
    claim.unlink(missing_ok=True)


def run_worker(
    spool_dir: Union[str, pathlib.Path],
    cache_dir: Union[str, pathlib.Path],
    poll_interval: float = 0.02,
    heartbeat_s: float = 5.0,
    max_tasks: Optional[int] = None,
    idle_exit_s: Optional[float] = None,
    worker_id: Optional[str] = None,
    run_timeout: Optional[float] = None,
) -> WorkerStats:
    """Serve a spool directory until stopped: claim, execute, deposit.

    Parameters
    ----------
    spool_dir / cache_dir:
        The shared spool and run cache (same values the coordinator uses).
    poll_interval:
        Seconds between an idle worker's ticks.  A tick is one ``stat``
        of ``tasks/``; the worker lists and claims only when that
        directory changed since its last empty scan, or when a heartbeat
        is due, so an idle fleet costs the shared filesystem one
        attribute read per worker per tick.
    heartbeat_s:
        Cadence of claim-mtime and worker-liveness heartbeats; must stay
        well under the coordinator's ``stale_timeout``.  Each heartbeat
        also rescans ``tasks/``: the safety net for a change that left
        the directory's mtime as it was (coarse timestamps, NFS
        attribute caches).
    max_tasks:
        Exit after claiming this many specs (``None`` = unbounded).
    idle_exit_s:
        Exit after this long without claimable work (``None`` = serve
        forever, until the ``stop`` sentinel appears).
    worker_id:
        Spool-unique identifier; defaults to ``<hostname>-<pid>``.
    run_timeout:
        Watchdog deadline per run, in seconds: a claimed task may take
        at most ``run_timeout`` times its run count of wall clock before the
        worker abandons it with a failure record instead of hanging the
        lease forever.  ``None`` disables the watchdog.

    Returns
    -------
    WorkerStats
        What this worker claimed, executed, served from cache and failed.
    """
    spool = _Spool(spool_dir)
    cache = RunCache(cache_dir)
    wid = worker_id or process_worker_id()
    beat_path = spool.workers / f"{wid}.json"
    stats = WorkerStats()
    idle_since = time.monotonic()
    last_beat = 0.0
    seen = None  # the tasks/ signature read before the last empty scan

    try:
        while True:
            if spool.stop.exists():
                break
            if max_tasks is not None and stats.claimed >= max_tasks:
                break
            now = time.monotonic()
            beat_due = now - last_beat >= heartbeat_s or not beat_path.exists()
            if beat_due:
                _write_json_atomic(beat_path, {"worker": wid, "pid": os.getpid()})
                last_beat = now
            claim = None
            listing = _dir_signature(spool.tasks)
            if listing != seen or beat_due:
                try:
                    chaos_trip("claim", tag=wid)
                    claim = _claim_next_task(spool)
                except ChaosError:
                    seen = None  # injected claim loss: rescan on the next tick
                else:
                    if claim is None:
                        seen = listing
            if claim is None:
                if idle_exit_s is not None and now - idle_since >= idle_exit_s:
                    break
                time.sleep(poll_interval)
                continue
            stats.claimed += 1
            _process_claim(
                spool, cache, claim, wid, heartbeat_s, stats,
                run_timeout=run_timeout,
            )
            # Execution time must not count as idle time, so the clock
            # restarts only after the claim is fully processed.
            idle_since = time.monotonic()
    finally:
        beat_path.unlink(missing_ok=True)
    return stats


def _process_claim(
    spool: _Spool,
    cache: RunCache,
    claim: pathlib.Path,
    worker_id: str,
    heartbeat_s: float,
    stats: WorkerStats,
    run_timeout: Optional[float] = None,
) -> None:
    task_id = claim.stem
    try:
        task = load_task_spec(claim)
        # Refuse a spec whose embedded key does not hash back to its
        # contents (corrupted or tampered spool file).
        task.verify_key()
    except PersistenceError as exc:
        if not claim.exists():
            return  # lease lost (requeued mid-read) — not this worker's task
        _record_failure(
            spool, task_id, claim, worker_id, str(exc),
            kind=type(exc).__name__,
        )
        stats.failed += 1
        return

    def _announce(run, counted: int) -> None:
        """Append the progress line *before* the result becomes visible in
        the cache: a coordinator that resolves the final run and drains the
        sidecars immediately must still see every announcement.  Each run
        announces under its own per-run id (which equals the claim stem
        for one-run tasks), so batching is invisible to the stream."""
        nonlocal mark
        wall, mark = time.perf_counter() - mark, time.perf_counter()
        event = ProgressEvent.for_run(run, task.run_id(run.run_index), worker_id, counted, wall)
        try:
            chaos_trip("publish", tag=task.scenario.label)
            append_record(event, spool.progress / f"{worker_id}.ndjson")
        except (OSError, ChaosError):
            pass  # progress is observational: never fail the task over it

    key_payload = task.key_payload()

    def _deposit(run) -> None:
        stats.executed += 1
        _announce(run, stats.executed + stats.cached)
        cache.put(task.key, run, key_payload=key_payload)

    heartbeat = _ClaimHeartbeat(claim, heartbeat_s)
    heartbeat.start()
    mark = time.perf_counter()
    try:
        # Runs already in the cache (a requeued-but-actually-completed
        # task, or part of one a previous worker half-finished)
        # short-circuit here instead of re-simulating.
        missing = []
        for index in task.run_indices:
            run = cache.get(task.key, task.scenario, index)
            if run is not None:
                stats.cached += 1
                _announce(run, stats.executed + stats.cached)
            else:
                missing.append(index)
        if missing:
            # One runner instance serves the whole seed wave — scenario
            # validation is hoisted, per-run seeds stay derive_seed-exact.
            # The watchdog deadline scales with the missing runs: every
            # run gets its run_timeout allowance.
            run_with_deadline(
                lambda: execute_batch(
                    task.seed, task.settings, task.migration_config,
                    task.stabilization, task.scenario, missing,
                    on_run=_deposit,
                ),
                None if run_timeout is None else run_timeout * len(missing),
                label=f"task {task_id} ({len(missing)} runs)",
            )
    except Exception as exc:  # noqa: BLE001 - any failure must reach the coordinator
        _record_failure(
            spool, task_id, claim, worker_id,
            f"{type(exc).__name__}: {exc}", traceback.format_exc(),
            kind=type(exc).__name__,
        )
        stats.failed += 1
    else:
        claim.unlink(missing_ok=True)
    finally:
        heartbeat.stop()
