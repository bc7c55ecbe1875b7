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
mtime while executing; the coordinator requeues claims whose heartbeat
is older than ``stale_timeout`` (worker died mid-task), and a corrupt
result file is deleted and its task resubmitted rather than returned.
Because every run is deterministic given its spec, re-execution after
any of these failures reproduces the original result exactly.

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
      failed/     terminal task failures (error + traceback JSON)
      quarantine/ specs parked after an exhausted retry budget
                  (``on_failure="quarantine"``) — inspect and re-spool by hand
      workers/    one heartbeat file per live worker (capacity introspection)
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
import socket
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
)
from repro.experiments.faults import (
    RunFailure,
    TaskFailure,
    run_with_deadline,
    traceback_digest,
)
from repro.experiments.results import ProgressEvent, run_sample_count
from repro.io import (
    PersistenceError,
    append_progress_event,
    load_progress_events,
    load_run_result,
    load_task_spec,
    save_task_spec,
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


def _write_json_atomic(path: pathlib.Path, payload: dict) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    tmp.replace(path)


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
    leases_failed: int = 0     # claims failed after the stale-requeue budget
    tasks_quarantined: int = 0 # specs parked in quarantine/


class _QueueFuture(Future):
    """A pending queue task; resolved by the coordinator's poll loop."""

    def __init__(self, task, task_id: str) -> None:
        super().__init__()
        self.task = task
        self.task_id = task_id
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
        Seconds between completion polls in :meth:`wait`.
    stale_timeout:
        A claim whose heartbeat mtime is older than this is considered
        abandoned and requeued.  Must comfortably exceed the workers'
        heartbeat interval (clock skew on NFS counts against it too).
    stop_workers_on_shutdown:
        Write the ``stop`` sentinel when the campaign finishes, telling
        workers to exit instead of idling for more work.
    worker_fresh_s:
        A worker-heartbeat file younger than this counts as a live worker
        for :attr:`capacity`.
    max_requeues:
        Stale-requeue budget per task (per submit): once a task's lease
        has expired this many times it is *failed* (a ``failed/`` record
        with ``retryable: false``) instead of recycled forever — the
        executor's ``on_failure`` policy then decides its fate.  ``None``
        (default) keeps the historical unbounded requeue behaviour.
    """

    name = "queue"

    def __init__(
        self,
        spool_dir: Union[str, pathlib.Path],
        cache: RunCache,
        poll_interval: float = 0.2,
        stale_timeout: float = 60.0,
        stop_workers_on_shutdown: bool = False,
        worker_fresh_s: float = 15.0,
        max_requeues: Optional[int] = None,
    ) -> None:
        if poll_interval <= 0:
            raise ExperimentError(f"poll_interval must be positive, got {poll_interval}")
        if stale_timeout <= 0:
            raise ExperimentError(f"stale_timeout must be positive, got {stale_timeout}")
        if max_requeues is not None and int(max_requeues) < 0:
            raise ExperimentError(f"max_requeues must be >= 0, got {max_requeues}")
        self.spool = _Spool(spool_dir)
        self.cache = cache
        self.poll_interval = float(poll_interval)
        self.stale_timeout = float(stale_timeout)
        self.stop_workers_on_shutdown = bool(stop_workers_on_shutdown)
        self.worker_fresh_s = float(worker_fresh_s)
        self.max_requeues = None if max_requeues is None else int(max_requeues)
        #: Stale-lease requeues per task id since its last submit.
        self._requeue_counts: dict[str, int] = {}
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

    # -- capacity introspection -----------------------------------------
    def active_workers(self) -> int:
        """Workers whose heartbeat file is fresh enough to be alive."""
        now = self._spool_now()
        alive = 0
        for beat in self.spool.workers.glob("*.json"):
            try:
                if max(now - beat.stat().st_mtime, 0.0) <= self.worker_fresh_s:
                    alive += 1
            except OSError:
                continue  # vanished between glob and stat
        return alive

    @property
    def capacity(self) -> Optional[int]:
        """Live worker count, or ``None`` while nobody has heartbeat yet.

        ``None`` is deliberate at cold start: workers typically attach
        *after* the coordinator spools its first wave, so the executor
        falls back to its ``jobs`` setting for initial wave/batch sizing
        and re-reads capacity on every subsequent top-up.
        """
        return self.active_workers() or None

    # -- protocol --------------------------------------------------------
    def submit(self, task: RunTask) -> Future:
        if task.key is None:
            raise ExperimentError("queue tasks need a cache key")
        task_id = task.task_id
        # A failure record from an earlier campaign must not resolve the
        # fresh attempt, so clear it before the spec becomes claimable;
        # a fresh attempt also gets a fresh stale-requeue budget.
        self.spool.failure_path(task_id).unlink(missing_ok=True)
        self._requeue_counts.pop(task_id, None)
        save_task_spec(task, self.spool.task_path(task_id))
        self.stats.tasks_submitted += 1
        # Workers announce progress per *run*, so a task owns one
        # progress id per covered index.
        self._session_task_ids.update(task.run_id(i) for i in task.run_indices)
        return _QueueFuture(task, task_id)

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
                e for e in load_progress_events(sidecar)
                if e.task_id in self._session_task_ids
            )
        events.sort(key=lambda e: e.at)
        latest = {e.task_id: e for e in events}
        return sorted(latest.values(), key=lambda e: e.at)

    def wait(
        self, pending: Collection[Future], timeout: Optional[float] = None
    ) -> Set[Future]:
        started = time.monotonic()
        while True:
            self._requeue_stale_claims()
            done = {future for future in pending if self._poll(future)}
            if done:
                return done
            if (
                timeout is not None
                and time.monotonic() - started + self.poll_interval > timeout
            ):
                return done  # empty: the scheduler has timers to service
            time.sleep(self.poll_interval)

    def shutdown(self) -> None:
        if self.stop_workers_on_shutdown:
            self.spool.stop.touch()

    def quarantine(self, task: RunTask) -> bool:
        """Park a budget-exhausted task's spec in ``quarantine/``.

        The spec is preserved verbatim for post-mortem inspection (and
        manual re-spooling into ``tasks/``); its open/claimed copies are
        removed so no worker picks it up again.  The ``failed/`` record
        of the final attempt is left in place — ``spool_status()``
        reports both.
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
        indices = task.run_indices
        # A task resolves only once *every* covered run is deposited and
        # valid; a corrupt run invalidates just that one cache file.
        runs = []
        complete = True
        for index in indices:
            run_path = self.cache._run_path(task.key, index)
            if not run_path.exists():
                complete = False
                continue
            run = None
            try:
                run = load_run_result(run_path)
            except PersistenceError:
                pass
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
            complete = False
        if complete and len(runs) == len(indices):
            future.set_result(runs)
            return True
        failure = self.spool.failure_path(future.task_id)
        if failure.exists():
            try:
                record = json.loads(failure.read_text(encoding="utf-8"))
                message = record.get("error", "unknown worker failure")
            except (json.JSONDecodeError, OSError):
                record = {}
                message = "unreadable worker failure record"
            # Structured failure for the coordinator's retry budget: the
            # record's "kind"/"retryable" fields are written by current
            # workers; older records degrade to a parsed exception-class
            # prefix and a retryable default.
            head = message.split(":", 1)[0]
            kind = record.get("kind") or (
                head if head.isidentifier() else "WorkerFailure"
            )
            run_failure = RunFailure(
                task_id=future.task_id,
                scenario=task.scenario.label,
                run_indices=tuple(indices),
                attempt=1,  # the executor stamps its own attempt count
                worker=str(record.get("worker", "?")),
                kind=str(kind),
                message=str(message),
                traceback_digest=traceback_digest(record.get("traceback")),
                at=time.time(),
            )
            future.set_exception(
                TaskFailure(
                    f"queue task {future.task_id} failed: {message}",
                    failure=run_failure,
                    retryable=bool(record.get("retryable", True)),
                )
            )
            return True
        # No result, no failure: the spec must still be claimable or
        # claimed.  If both files are gone (corrupt result deleted above,
        # or spool tampering), respool the spec so the run is recomputed.
        if (
            not self.spool.task_path(future.task_id).exists()
            and not self.spool.claim_path(future.task_id).exists()
        ):
            save_task_spec(task, self.spool.task_path(future.task_id))
            self.stats.tasks_resubmitted += 1
        return False

    def _requeue_stale_claims(self) -> None:
        """Return claims with an expired heartbeat to the open queue.

        With :attr:`max_requeues` set, a task whose lease keeps expiring
        is failed (``retryable: false``) once the budget is spent — a
        worker-killing task must not be recycled to every worker in the
        fleet forever.
        """
        now = self._spool_now()
        for claim in self.spool.claims.glob("*.json"):
            try:
                if max(now - claim.stat().st_mtime, 0.0) <= self.stale_timeout:
                    continue
            except OSError:
                continue  # completed between glob and stat
            task_id = claim.stem
            spent = self._requeue_counts.get(task_id, 0)
            if self.max_requeues is not None and spent >= self.max_requeues:
                _write_json_atomic(
                    self.spool.failure_path(task_id),
                    {
                        "schema": TASK_FAILURE_SCHEMA,
                        "task_id": task_id,
                        "worker": "coordinator",
                        "error": (
                            f"lease expired {spent + 1} times "
                            f"(stale-requeue budget {self.max_requeues} exhausted)"
                        ),
                        "kind": "StaleLease",
                        "retryable": False,
                        "traceback": None,
                    },
                )
                claim.unlink(missing_ok=True)
                self.stats.leases_failed += 1
                continue
            try:
                claim.rename(self.spool.tasks / claim.name)
                self.stats.tasks_requeued += 1
                self._requeue_counts[task_id] = spent + 1
            except OSError:
                continue  # another coordinator beat us to it


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
        events = load_progress_events(sidecar)
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
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            record = {}
        failures.append(
            {
                "task_id": record.get("task_id", path.stem),
                "worker": record.get("worker", "?"),
                "error": record.get("error", "unreadable failure record"),
                "kind": record.get("kind", "?"),
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
    error: str, trace: Optional[str] = None,
    kind: Optional[str] = None, retryable: bool = True,
) -> None:
    _write_json_atomic(
        spool.failure_path(task_id),
        {
            "schema": TASK_FAILURE_SCHEMA,
            "task_id": task_id,
            "worker": worker_id,
            "error": error,
            "kind": kind,
            "retryable": bool(retryable),
            "traceback": trace,
        },
    )
    claim.unlink(missing_ok=True)


def run_worker(
    spool_dir: Union[str, pathlib.Path],
    cache_dir: Union[str, pathlib.Path],
    poll_interval: float = 0.5,
    heartbeat_s: float = 5.0,
    max_tasks: Optional[int] = None,
    idle_exit_s: Optional[float] = None,
    worker_id: Optional[str] = None,
    verify_keys: bool = True,
    run_timeout: Optional[float] = None,
) -> WorkerStats:
    """Serve a spool directory until stopped: claim, execute, deposit.

    Parameters
    ----------
    spool_dir / cache_dir:
        The shared spool and run cache (same values the coordinator uses).
    poll_interval:
        Base sleep between scans while the queue is empty; consecutive
        empty scans back off exponentially (capped near ``heartbeat_s``)
        so a big idle fleet does not hammer the shared filesystem.
    heartbeat_s:
        Cadence of claim-mtime and worker-liveness heartbeats; must stay
        well under the coordinator's ``stale_timeout``.
    max_tasks:
        Exit after claiming this many specs (``None`` = unbounded).
    idle_exit_s:
        Exit after this long without claimable work (``None`` = serve
        forever, until the ``stop`` sentinel appears).
    worker_id:
        Spool-unique identifier; defaults to ``<hostname>-<pid>``.
    verify_keys:
        Recompute each spec's cache key and refuse mismatching specs
        (defence against corrupted or tampered spool files).
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
    wid = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    beat_path = spool.workers / f"{wid}.json"
    stats = WorkerStats()
    idle_since = time.monotonic()
    last_beat = 0.0
    idle_scans = 0
    # Idle polls back off exponentially, but never so far that the worker
    # misses its own heartbeat cadence (which also bounds stop latency).
    idle_cap = max(poll_interval, min(poll_interval * 16.0, heartbeat_s))

    try:
        while True:
            if spool.stop.exists():
                break
            if max_tasks is not None and stats.claimed >= max_tasks:
                break
            now = time.monotonic()
            if now - last_beat >= heartbeat_s or not beat_path.exists():
                _write_json_atomic(beat_path, {"worker": wid, "pid": os.getpid()})
                last_beat = now
            try:
                chaos_trip("claim", tag=wid)
                claim = _claim_next_task(spool)
            except ChaosError:
                claim = None  # injected claim loss: retry on the next scan
            if claim is None:
                if idle_exit_s is not None and now - idle_since >= idle_exit_s:
                    break
                time.sleep(min(poll_interval * (2.0 ** idle_scans), idle_cap))
                idle_scans = min(idle_scans + 1, 16)  # 2**16 already clears any cap
                continue
            idle_scans = 0
            stats.claimed += 1
            _process_claim(
                spool, cache, claim, wid, heartbeat_s, verify_keys, stats,
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
    verify_keys: bool,
    stats: WorkerStats,
    run_timeout: Optional[float] = None,
) -> None:
    task_id = claim.stem
    try:
        task = load_task_spec(claim)
        if verify_keys:
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
        wall = max(time.perf_counter() - mark, 1e-9)
        mark = time.perf_counter()
        samples = run_sample_count(run)
        event = ProgressEvent(
            task_id=task.run_id(run.run_index),
            scenario=task.scenario.label,
            run_index=run.run_index,
            worker=worker_id,
            runs_completed=counted,
            samples=samples,
            wall_s=wall,
            samples_per_s=samples / wall,
            at=time.time(),
        )
        try:
            chaos_trip("publish", tag=task.scenario.label)
            append_progress_event(event, spool.progress / f"{worker_id}.ndjson")
        except (OSError, ChaosError):
            pass  # progress is observational: never fail the task over it

    def _deposit(run) -> None:
        stats.executed += 1
        _announce(run, stats.executed + stats.cached)
        cache.put(task.key, run, key_payload=task.key_payload())

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
