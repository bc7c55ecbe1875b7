"""Parallel campaign execution with a content-addressed run cache.

The paper's measurement protocol repeats every scenario at least ten
times and a full Table IIa campaign multiplies that across 42 scenarios —
yet every run is seeded independently via
``derive_seed(master, f"{label}#{index}")``, which makes a campaign
embarrassingly parallel at run granularity.  This module exploits that:

* :class:`CampaignExecutor` fans runs out across an
  :class:`ExecutorBackend` — worker processes (``process`` backend on
  :class:`concurrent.futures.ProcessPoolExecutor`), inline execution
  (``serial`` backend) or a shared-filesystem work queue served by
  remote worker processes (``queue`` backend,
  :mod:`repro.experiments.queue_backend`) — while preserving the
  adaptive variance-stopping loop of Section V-B.  Runs are dispatched in
  *waves*: each scenario starts with ``min_runs`` runs, the 10 % variance
  criterion is evaluated on the completed, index-ordered energies
  (:func:`~repro.experiments.runner.resolve_run_count` — the same pure
  function the serial path uses), and unsatisfied scenarios are topped up
  one run at a time until ``max_runs``.  Each wave's missing runs go out
  as one :class:`RunTask` per contiguous span (a cache hit breaks a
  span), a pure function of the wave alone.  The executor therefore
  simulates exactly the runs the serial loop would, and the returned
  :class:`~repro.experiments.results.ExperimentResult` is
  **bit-identical** to the serial path for any backend and worker count.

* :class:`RunCache` is a content-addressed on-disk cache of individual
  run results.  The key is a SHA-256 over the canonical JSON of the
  master seed, the scenario spec, the :class:`RunnerSettings`, the
  :class:`MigrationConfig` override and the stabilisation rule — so any
  change to the execution protocol invalidates the cache, while
  analysis-only changes re-use every run.  Layout::

      <cache-dir>/<key[:2]>/<key>/meta.json     # human-readable key inputs
      <cache-dir>/<key[:2]>/<key>/run-0003.pkl  # one RunResult per run

* :class:`ExecutorBackend` is the formal protocol the wave scheduler
  drives: ``submit()`` a :class:`RunTask` (a contiguous seed range of
  one scenario; its future resolves to the range's runs), ``wait()`` for
  completions, ``shutdown()`` when the campaign is over.  Any object
  implementing it (a cluster scheduler, an RPC fan-out, …) can back a
  campaign.

See ``docs/parallel_campaigns.md`` for the full design discussion.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import socket
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Collection, Optional, Sequence, Set, Union

from repro.errors import ExperimentError
from repro.experiments.chaos import ChaosError, chaos_trip
from repro.experiments.design import MigrationScenario
from repro.experiments.faults import FailureLedger, RetryPolicy, RunFailure, run_with_deadline
from repro.experiments.results import (
    ExperimentResult,
    ProgressEvent,
    RunResult,
    ScenarioResult,
)
from repro.experiments.runner import RunnerSettings, ScenarioRunner, resolve_run_count
from repro.experiments.taskboard import COORDINATOR, TaskBoard
from repro.hypervisor.migration import MigrationConfig
from repro.io import PersistenceError, load_run_result, save_run_result, write_atomic
from repro.models.features import HostRole
from repro.telemetry.stabilization import StabilizationRule

__all__ = [
    "CampaignExecutor",
    "ExecutorBackend",
    "ExecutorStats",
    "ProcessBackend",
    "RunCache",
    "RunTask",
    "SerialBackend",
    "execute_batch",
    "CACHE_KEY_SCHEMA",
]

#: Versions the cache-key derivation itself: bump to invalidate every
#: existing cache entry after a change to run semantics.
#: /2: MigrationScenario gained the ``driver`` field (manager-driven
#: scenarios), which changes the canonical scenario payload.
#: /3: the dirty-page model draws one binomial per step (no discarded
#: page-permutation draw), which changes every live run's random stream.
#: /4: MigrationScenario lost the ``driver`` field again (no scenario is
#: manager-driven any more), which changes the canonical scenario payload.
#: /5: host CPU jitter is averaged over the meter period (its sigma falls
#: by sqrt(50)), which changes every run's power and CPU reads.
CACHE_KEY_SCHEMA = "wavm3-run-cache/5"


def execute_batch(
    seed: int,
    settings: RunnerSettings,
    migration_config: Optional[MigrationConfig],
    stabilization: StabilizationRule,
    scenario: MigrationScenario,
    run_indices: Sequence[int],
    on_run=None,
) -> list[RunResult]:
    """Worker entry point: a seed wave of one scenario through one runner.

    One :class:`ScenarioRunner` instance executes every index (scenario
    validation hoisted, per-run RNG streams still derived independently
    via ``derive_seed``), so the per-run interpreter and setup cost is
    paid once per task rather than once per run.  Each run's bytes are
    identical to :meth:`ScenarioRunner.run_once` for the same index.

    Parameters
    ----------
    seed / settings / migration_config / stabilization / scenario:
        The shared run-stream parameters (see :class:`RunTask`).
    run_indices:
        The indices to execute, in order (not necessarily contiguous: a
        worker resuming a partially-cached task passes only the holes).
    on_run:
        Optional per-run callback (progress announcement, incremental
        cache deposit); forwarded to
        :meth:`~repro.experiments.runner.ScenarioRunner.run_batch`.

    Returns
    -------
    list[RunResult]
        One result per index, in ``run_indices`` order.
    """
    # The "execute" chaos seam, tripped once per run (an injected crash
    # fails the whole claim, exactly like a real one).
    for index in run_indices:
        chaos_trip("execute", tag=f"{scenario.label}#{index}")
    runner = ScenarioRunner(
        seed=seed,
        settings=settings,
        migration_config=migration_config,
        stabilization=stabilization,
    )
    return runner.run_batch(scenario, run_indices, on_run=on_run)


# ---------------------------------------------------------------------------
# Run task spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RunTask:
    """A contiguous seed range of one scenario: the unit of dispatch.

    Every backend executes tasks: the process backend pickles one to a
    worker process, the queue backend serialises it to a JSON spool file
    (:func:`repro.io.save_task_spec` through the record codec,
    ``wavm3-taskspec/3``) claimed by remote ``campaign-worker``
    processes.  The task covers runs ``run_start``
    through ``run_start + run_count - 1``; executing it routes them all
    through a single :class:`ScenarioRunner` (:func:`execute_batch`),
    while every run's seed — and therefore its bytes — depends only on
    ``(seed, scenario.label, run_index)``.  ``key`` carries the
    scenario's :class:`RunCache` key when a cache is in play, so workers
    can deposit results (per run, ``run-NNNN.pkl``) straight into the
    shared cache.
    """

    seed: int
    settings: RunnerSettings
    migration_config: Optional[MigrationConfig]
    stabilization: StabilizationRule
    scenario: MigrationScenario
    run_start: int
    run_count: int = 1
    key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.run_start < 0 or self.run_count < 1:
            raise ExperimentError(
                f"invalid batch range: start={self.run_start} count={self.run_count}"
            )

    @property
    def run_indices(self) -> range:
        """The run indices this task covers, in execution order."""
        return range(self.run_start, self.run_start + self.run_count)

    def run_id(self, index: int) -> str:
        """The per-run id of ``index``.

        ``<key16>-NNNN``, or ``label#N`` for a task without a key.
        Progress events and the failure ledger name runs by it, whatever
        the task's size, so the campaign summary and ``campaign-status``
        are batching-agnostic.
        """
        if self.key is None:
            return f"{self.scenario.label}#{index}"
        return f"{self.key[:16]}-{index:04d}"

    @property
    def task_id(self) -> str:
        """The stable id of the task (its spool file stem).

        A one-run task is named like its run; a larger one appends its
        run count (``<key16>-NNNNxC``), so a task and its first run never
        collide.
        """
        first = self.run_id(self.run_start)
        return first if self.run_count == 1 else f"{first}x{self.run_count}"

    def execute(self, on_run=None) -> list[RunResult]:
        """Run the task in the current process (the pure serial code path).

        Parameters
        ----------
        on_run:
            Optional per-run callback (see :func:`execute_batch`).

        Returns
        -------
        list[RunResult]
            One result per index, in ascending index order — identical
            bytes for every backend.
        """
        return execute_batch(
            self.seed,
            self.settings,
            self.migration_config,
            self.stabilization,
            self.scenario,
            self.run_indices,
            on_run=on_run,
        )

    def key_payload(self) -> dict:
        """The cache-key ingredients of this task (see :class:`RunCache`)."""
        return RunCache._key_payload(
            self.seed, self.scenario, self.settings,
            self.migration_config, self.stabilization,
        )

    def verify_key(self) -> None:
        """Check that :attr:`key` hashes back to the task's contents.

        Raises
        ------
        PersistenceError
            If the embedded key does not match — a corrupted or tampered
            spec that a worker must refuse rather than execute.
        """
        if self.key != RunCache._payload_digest(self.key_payload()):
            raise PersistenceError(
                f"embedded cache key {self.key!r} does not match the spec"
            )


def _contiguous_spans(indices: Sequence[int]) -> list[list[int]]:
    """Split ascending ``indices`` into maximal contiguous runs.

    The dispatch plan of a wave: one task per span of its missing runs.
    Tasks carry a (start, count) range, so a gap — e.g. a cache hit in
    the middle of a wave — forces a span break.
    """
    spans: list[list[int]] = []
    for index in indices:
        if spans and index == spans[-1][-1] + 1:
            spans[-1].append(index)
        else:
            spans.append([index])
    return spans


def process_worker_id() -> str:
    """This process's worker id, ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _execute_task(
    task: RunTask, run_timeout: Optional[float] = None
) -> tuple[list[RunResult], list[float], str]:
    """Module-level trampoline so task dispatch can pickle.

    Returns the task's runs, each run's wall time, measured where it ran
    (pool queueing and collection delay never count), and the
    :func:`process_worker_id` of the process it ran in.  ``run_timeout``
    arms the per-run watchdog
    (:func:`~repro.experiments.faults.run_with_deadline`): a task's
    deadline is ``run_timeout`` times its run count, so the budget scales
    with the dispatched work.
    """
    walls: list[float] = []
    mark = time.perf_counter()

    def timed(_run: RunResult) -> None:
        nonlocal mark
        now = time.perf_counter()
        walls.append(now - mark)
        mark = now

    count = task.run_count
    runs = run_with_deadline(
        lambda: task.execute(on_run=timed),
        None if run_timeout is None else run_timeout * count,
        label=f"task {task.scenario.label!r} ({count} run{'s' if count > 1 else ''})",
    )
    return runs, walls, process_worker_id()


# ---------------------------------------------------------------------------
# Run cache
# ---------------------------------------------------------------------------
class RunCache:
    """Content-addressed on-disk cache of individual run results.

    Every run is stored under a *scenario key* — the SHA-256 of the
    canonical JSON of everything that determines the run's outcome — plus
    its run index.  Unreadable or wrong-schema entries count as misses,
    and an entry whose ``meta.json`` fails schema/hash validation is
    distrusted wholesale: its runs are recomputed rather than returned.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        #: Payload bytes served from / persisted into the cache — the
        #: warm-rerun observability counters surfaced by the campaign
        #: summary and ``campaign-status``.
        self.bytes_read = 0
        self.bytes_written = 0
        #: Per-key memo of the meta.json validation verdict.
        self._meta_verdict: dict[str, bool] = {}
        #: Keys whose entry directory and ``meta.json`` this instance has
        #: already made sure of (see :meth:`put`).
        self._entry_ready: set[str] = set()

    def counters(self) -> dict:
        """Hit/miss/byte counters as a JSON-ready dict (status views)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    # -- keying ---------------------------------------------------------
    @staticmethod
    def scenario_key(
        seed: int,
        scenario: MigrationScenario,
        settings: RunnerSettings,
        migration_config: Optional[MigrationConfig],
        stabilization: StabilizationRule,
    ) -> str:
        """Hex digest identifying one scenario's run stream exhaustively."""
        payload = RunCache._key_payload(
            seed, scenario, settings, migration_config, stabilization
        )
        return RunCache._payload_digest(payload)

    @staticmethod
    def _payload_digest(payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @staticmethod
    def _key_payload(
        seed: int,
        scenario: MigrationScenario,
        settings: RunnerSettings,
        migration_config: Optional[MigrationConfig],
        stabilization: StabilizationRule,
    ) -> dict:
        settings_payload = dataclasses.asdict(settings)
        # The telemetry implementation ("batched" vs "events") is proven
        # bit-identical (cross-path golden tests), so it must not split
        # the cache: a campaign warmed in one mode serves the other.
        settings_payload.pop("telemetry", None)
        return {
            "schema": CACHE_KEY_SCHEMA,
            "seed": int(seed),
            "scenario": dataclasses.asdict(scenario),
            "settings": settings_payload,
            "migration_config": (
                dataclasses.asdict(migration_config)
                if migration_config is not None
                else None
            ),
            "stabilization": dataclasses.asdict(stabilization),
        }

    def _entry_dir(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / key

    def _run_path(self, key: str, run_index: int) -> pathlib.Path:
        return self._entry_dir(key) / f"run-{run_index:04d}.pkl"

    def _meta_ok(self, key: str) -> bool:
        """Validate an entry's ``meta.json`` against the key, memoised.

        A missing meta is fine (run payloads are self-validating pickles;
        the meta may simply not have been written yet), but a meta that
        is unreadable, carries the wrong schema tag, or whose canonical
        JSON does not hash back to the key marks the whole entry as
        untrustworthy — runs under it are recomputed, never returned.
        """
        verdict = self._meta_verdict.get(key)
        if verdict is not None:
            return verdict
        path = self._entry_dir(key) / "meta.json"
        ok = True
        if path.exists():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                ok = (
                    isinstance(payload, dict)
                    and payload.get("schema") == CACHE_KEY_SCHEMA
                    and self._payload_digest(payload) == key
                )
            except (json.JSONDecodeError, OSError):
                ok = False
        self._meta_verdict[key] = ok
        return ok

    # -- access ---------------------------------------------------------
    def get(self, key: str, scenario: MigrationScenario, run_index: int) -> Optional[RunResult]:
        """Load a cached run, or ``None`` on any kind of miss.

        Parameters
        ----------
        key:
            The :meth:`scenario_key` the run was stored under.
        scenario:
            The scenario the caller expects — a stored run for any other
            scenario (hash collision, hand-edited cache) is a miss.
        run_index:
            The run's index within the scenario's stream.

        Returns
        -------
        Optional[RunResult]
            The cached run, or ``None`` if absent, unreadable,
            wrong-schema or mismatched (all counted in :attr:`misses`).
        """
        if not self._meta_ok(key):
            self.misses += 1
            return None
        path = self._run_path(key, run_index)
        if not path.exists():
            self.misses += 1
            return None
        try:
            run = load_run_result(path)
        except PersistenceError:
            self.misses += 1
            return None
        # Defence against hash collisions / hand-edited cache dirs.
        if run.scenario != scenario or run.run_index != run_index:
            self.misses += 1
            return None
        self.hits += 1
        try:
            self.bytes_read += path.stat().st_size
        except OSError:
            pass  # the payload is in hand; the counter is observability
        return run

    def put(
        self,
        key: str,
        run: RunResult,
        key_payload: Optional[dict] = None,
    ) -> None:
        """Store one run; (re)writes a valid ``meta.json`` describing the key.

        The entry directory and its ``meta.json`` are checked once per key
        per instance; a put into an entry deleted since then recreates both.

        Parameters
        ----------
        key:
            The :meth:`scenario_key` to file the run under.
        run:
            The run to persist (its ``run_index`` names the file).
        key_payload:
            The key's ingredient dict (:meth:`_key_payload` output); when
            given, a missing or invalid ``meta.json`` is (re)written from
            it atomically.
        """
        path = self._run_path(key, run.run_index)
        if key not in self._entry_ready:
            self._prepare_entry(key, key_payload)
        try:
            save_run_result(run, path)
        except FileNotFoundError:
            # The entry directory was deleted since it was prepared.
            self._prepare_entry(key, key_payload)
            save_run_result(run, path)
        try:
            self.bytes_written += path.stat().st_size
        except OSError:
            pass  # counter only; the write itself already succeeded

    def _prepare_entry(self, key: str, key_payload: Optional[dict]) -> None:
        """Create the entry directory and a valid ``meta.json``, once per key."""
        entry = self._entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        if key_payload is None:
            return  # no meta to write; a later put with a payload prepares again
        meta = entry / "meta.json"
        if not meta.exists() or not self._meta_ok(key):
            # Atomic write: a half-written meta must never fail validation
            # for a concurrent reader of an otherwise-good entry.
            write_atomic(
                meta,
                json.dumps(key_payload, sort_keys=True, indent=1).encode("utf-8"),
            )
            self._meta_verdict[key] = True
        self._entry_ready.add(key)


# ---------------------------------------------------------------------------
# Backend protocol
# ---------------------------------------------------------------------------
class ExecutorBackend(abc.ABC):
    """What the wave scheduler needs from an execution substrate.

    The contract is deliberately small — ``submit()`` plus completed-
    future semantics — so a backend can be an in-process loop, a local
    process pool or a spool directory shared with remote workers
    (:class:`~repro.experiments.queue_backend.QueueBackend`), without the
    scheduler knowing the difference.
    """

    #: Human-readable backend identifier (``executor.backend`` reports it).
    name: str = "?"

    #: The campaign's :class:`~repro.experiments.taskboard.TaskBoard`, set
    #: by the executor before its first submit.  A backend that sees a
    #: lease expire reports it there (:meth:`TaskBoard.expire`).
    board: Optional[TaskBoard] = None

    @abc.abstractmethod
    def submit(self, task: RunTask) -> Future:
        """Dispatch one run task.

        Parameters
        ----------
        task:
            The self-contained task to execute (one or more runs).

        Returns
        -------
        concurrent.futures.Future
            Resolves to the task's runs, a ``list`` of
            :class:`~repro.experiments.results.RunResult` in
            ``task.run_indices`` order; a worker-side failure surfaces as
            the future's exception.  A backend that times its runs where
            they execute sets the future's ``walls`` attribute to the
            per-run wall times, in the same order, and its ``worker``
            attribute to the id of the process that ran them.
        """

    def wait(
        self, pending: Collection[Future], timeout: Optional[float] = None
    ) -> Set[Future]:
        """Block until at least one pending future is done.

        Parameters
        ----------
        pending:
            Futures previously returned by :meth:`submit` that the
            scheduler has not collected yet (never empty).
        timeout:
            Optional upper bound in seconds on the block — the scheduler
            passes one when it has its own timers to service (retry
            backoff expiries, the campaign deadline).  ``None`` waits
            indefinitely.

        Returns
        -------
        set[concurrent.futures.Future]
            The subset of ``pending`` that is now done; may be empty
            only when ``timeout`` expired first.
        """
        done, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
        return set(done)

    def quarantine(self, task: RunTask) -> bool:
        """Move a task whose retry budget is exhausted into quarantine.

        The queue backend persists the spec in its ``quarantine/`` spool
        directory so operators can inspect and re-submit it.  The default — for in-process backends, which have
        no durable task store — records nothing.

        Parameters
        ----------
        task:
            The failed :class:`RunTask` (stored under its ``task_id``).

        Returns
        -------
        bool
            ``True`` when the task was captured in a quarantine store,
            ``False`` when the backend has none (the coordinator then
            records the failure as ``skipped`` rather than
            ``quarantined``).
        """
        return False

    def shutdown(self) -> None:
        """Release backend resources once the campaign is over.

        Process and queue backends may be reused after ``shutdown()``.
        """

    def drain_progress(self) -> list:
        """Worker-reported progress events for the current campaign.

        Distributed backends override this to return the
        :class:`~repro.experiments.results.ProgressEvent` records their
        workers published through the task-handoff channel (spool NDJSON
        sidecars).  The default — for in-process
        backends, whose workers cannot self-report — is an empty list,
        which makes the executor fall back to its own coordinator-side
        synthesis.

        Returns
        -------
        list[ProgressEvent]
            Events in announcement order; empty when the backend has no
            worker-side channel.
        """
        return []


class _SerialFuture(Future):
    """An already-resolved future: lets the serial backend share the
    process-backend scheduling loop unchanged."""

    def __init__(self, task: RunTask, run_timeout: Optional[float]) -> None:
        super().__init__()
        try:
            runs, self.walls, self.worker = _execute_task(task, run_timeout)
        except BaseException as exc:  # noqa: BLE001 - mirrored to the caller
            self.set_exception(exc)
        else:
            self.set_result(runs)


class SerialBackend(ExecutorBackend):
    """Inline execution: ``submit`` runs the task before returning."""

    name = "serial"

    def __init__(self, run_timeout: Optional[float] = None) -> None:
        self.run_timeout = run_timeout

    def submit(self, task: RunTask) -> Future:
        return _SerialFuture(task, self.run_timeout)

    def wait(
        self, pending: Collection[Future], timeout: Optional[float] = None
    ) -> Set[Future]:
        return set(pending)  # serial futures resolve at submit time


class ProcessBackend(ExecutorBackend):
    """A lazily-created :class:`ProcessPoolExecutor` with ``jobs`` workers."""

    name = "process"

    def __init__(self, jobs: int, run_timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.run_timeout = run_timeout
        self._pool: Optional[ProcessPoolExecutor] = None

    def submit(self, task: RunTask) -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        inner = self._pool.submit(_execute_task, task, self.run_timeout)
        # Unwrap (runs, walls, worker) into a run-list future carrying the
        # worker-side run walls and process id as attributes, mirroring
        # _SerialFuture.
        outer: Future = Future()

        def _unwrap(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
            else:
                runs, outer.walls, outer.worker = done.result()
                outer.set_result(runs)

        inner.add_done_callback(_unwrap)
        return outer

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
@dataclass
class ExecutorStats:
    """Accounting of one :meth:`CampaignExecutor.run_campaign` call."""

    scenarios: int = 0
    runs_kept: int = 0        # runs in the returned ExperimentResult
    runs_executed: int = 0    # runs actually simulated (cache misses + no-cache)
    runs_cached: int = 0      # runs served from the cache
    runs_discarded: int = 0   # runs a degraded scenario drops after a hole
    scenarios_dropped: int = 0  # scenarios with zero usable runs
    board: TaskBoard = field(default_factory=TaskBoard, repr=False, compare=False)

    # The failure counters, read from the campaign's task board:
    failures = property(lambda self: len(self.board.records))  # ledger records
    tasks_retried = property(lambda self: self.board.count("retried"))
    tasks_quarantined = property(lambda self: self.board.count("quarantined"))
    runs_abandoned = property(lambda self: self.board.runs_abandoned)  # of fated tasks

    @property
    def degraded(self) -> bool:
        """Whether the campaign completed with less than it was asked for."""
        return self.runs_abandoned > 0 or self.scenarios_dropped > 0


class _ScenarioState:
    """Book-keeping of one scenario's adaptive run stream.

    ``first`` is the task of the stream's run 0; a dispatched span is
    the same task over another range (:meth:`task`).
    """

    __slots__ = (
        "first", "runs", "energies", "inflight", "abandoned", "target", "resolved",
    )

    def __init__(self, first: RunTask, target: int) -> None:
        self.first = first
        self.runs: dict[int, RunResult] = {}
        #: Each kept run's source migration energy, computed once.
        self.energies: dict[int, float] = {}
        self.inflight: set[int] = set()
        self.abandoned: set[int] = set()  # indices lost to exhausted retry budgets
        self.target = target            # runs [0, target) currently wanted
        self.resolved: Optional[int] = None  # final kept count once decided

    @property
    def scenario(self) -> MigrationScenario:
        return self.first.scenario

    @property
    def key(self) -> Optional[str]:
        return self.first.key

    def task(self, span: Sequence[int]) -> RunTask:
        """The task covering the contiguous run indices ``span``."""
        return dataclasses.replace(self.first, run_start=span[0], run_count=len(span))

    def keep(self, index: int, run: RunResult) -> None:
        """Hold run ``index`` and the source energy the stopping rule reads."""
        self.runs[index] = run
        self.energies[index] = run.total_energy_j(HostRole.SOURCE)


class CampaignExecutor:
    """Fan a measurement campaign out across an execution backend.

    Every backend runs the one dispatch plan: a wave's missing runs go
    out as one task per contiguous span, cut at cache holes, and an
    undecided scenario is topped up by one run.  The plan depends on the
    wave alone, never on the backend or the worker count, so the
    executor simulates exactly the runs the serial loop would.  Cache
    entries, progress events and results stay per-run and bit-identical.
    Each campaign's tasks live on one
    :class:`~repro.experiments.taskboard.TaskBoard` (:attr:`board`), which
    decides their attempts, retries and fates.

    Parameters
    ----------
    runner:
        The :class:`ScenarioRunner` holding seed and protocol knobs; the
        executor never mutates it and reproduces exactly the runs its
        serial :meth:`~ScenarioRunner.run_campaign` would keep.
    jobs:
        Worker-process count of the process backend; ``1`` selects the
        serial backend under ``backend="auto"``.
    backend:
        ``"process"``, ``"serial"``, ``"queue"``, ``"auto"`` (process iff
        ``jobs > 1``) — or any :class:`ExecutorBackend` instance.  The
        ``queue`` backend additionally requires ``cache_dir`` (the shared
        result store) and ``spool_dir`` (the shared task spool served by
        ``campaign-worker`` processes).
    cache_dir:
        Optional directory for the content-addressed :class:`RunCache`.
    spool_dir:
        Shared spool directory of the ``queue`` backend (ignored otherwise).
    queue_options:
        Extra keyword arguments forwarded to
        :class:`~repro.experiments.queue_backend.QueueBackend`
        (``poll_interval``, ``stale_timeout``, ``stop_workers_on_shutdown``, …).
    max_retries / on_failure / retry_policy / campaign_timeout:
        The failure knobs of each campaign's
        :class:`~repro.experiments.taskboard.TaskBoard`: the attempt
        budget per task (default 1: fail fast; above 1 it also bounds
        stale-lease requeues), what a spent budget does (``"raise"``,
        ``"skip"`` or ``"quarantine"``: the latter two complete the
        campaign degraded), the backoff between attempts (default
        :class:`~repro.experiments.faults.RetryPolicy`) and the deadline
        in seconds of the whole campaign.  Every failed attempt lands in
        the failure ledger (:attr:`ledger`).
    run_timeout:
        Per-run wall-clock watchdog for the in-process backends
        (serial/process), in seconds; a batch task gets ``run_timeout ×
        run_count``.  Distributed workers arm their own watchdog via
        ``campaign-worker --run-timeout``.

    Raises
    ------
    ExperimentError
        On invalid ``jobs``, an unknown backend name, or a backend whose
        required companion arguments are missing.
    """

    def __init__(
        self,
        runner: ScenarioRunner,
        jobs: int = 1,
        backend: Union[str, ExecutorBackend] = "auto",
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        spool_dir: Optional[Union[str, pathlib.Path]] = None,
        queue_options: Optional[dict] = None,
        max_retries: int = 1,
        on_failure: str = "raise",
        retry_policy: Optional[RetryPolicy] = None,
        run_timeout: Optional[float] = None,
        campaign_timeout: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        if run_timeout is not None and run_timeout <= 0:
            raise ExperimentError(f"run_timeout must be > 0, got {run_timeout}")
        self._new_board = functools.partial(
            TaskBoard, max_retries=max_retries, on_failure=on_failure,
            retry_policy=retry_policy, campaign_timeout=campaign_timeout,
        )
        #: The task board of the most recent campaign.
        self.board = self._new_board()  # validates the failure knobs
        self.runner = runner
        self.jobs = int(jobs)
        self.run_timeout = run_timeout
        self.cache = RunCache(cache_dir) if cache_dir is not None else None
        #: The per-campaign failure ledger; persisted next to the cache
        #: (``failures.ndjson``) when a cache_dir is configured.
        self.ledger = FailureLedger(
            path=pathlib.Path(cache_dir) / "failures.ndjson"
            if cache_dir is not None
            else None
        )
        self._backend = self._make_backend(backend, spool_dir, queue_options)
        self.backend = self._backend.name
        self.stats = ExecutorStats()
        #: Per-run progress announcements of the most recent campaign:
        #: worker-reported events where the backend has a channel for them
        #: (queue sidecars), coordinator-synthesised
        #: completion records otherwise.
        self.progress_events: list[ProgressEvent] = []
        #: Submitted futures -> (state, task, submit time on perf_counter).
        self._handles: dict[Future, tuple[_ScenarioState, RunTask, float]] = {}

    @property
    def queue_stats(self):
        """The queue backend's traffic stats (a
        :class:`~repro.experiments.queue_backend.QueueStats`), or ``None``
        for in-process backends."""
        return getattr(self._backend, "stats", None)

    def _make_backend(
        self,
        backend: Union[str, ExecutorBackend],
        spool_dir: Optional[Union[str, pathlib.Path]],
        queue_options: Optional[dict],
    ) -> ExecutorBackend:
        if isinstance(backend, ExecutorBackend):
            return backend
        if backend not in ("auto", "process", "serial", "queue"):
            raise ExperimentError(f"unknown backend {backend!r}")
        if backend == "auto":
            backend = "process" if self.jobs > 1 else "serial"
        if backend == "serial":
            return SerialBackend(run_timeout=self.run_timeout)
        if backend == "process":
            return ProcessBackend(self.jobs, run_timeout=self.run_timeout)
        # queue: remote workers share the cache, so both dirs are required.
        if self.cache is None:
            raise ExperimentError("the queue backend requires a cache_dir")
        if spool_dir is None:
            raise ExperimentError("the queue backend requires a spool_dir")
        from repro.experiments.queue_backend import QueueBackend  # local: avoid cycle

        return QueueBackend(spool_dir, self.cache, **(queue_options or {}))

    # ------------------------------------------------------------------
    def run_campaign(
        self,
        scenarios: Sequence[MigrationScenario],
        min_runs: Optional[int] = None,
        max_runs: Optional[int] = None,
    ) -> ExperimentResult:
        """Execute a campaign; bit-identical to the serial path.

        Parameters
        ----------
        scenarios:
            The scenarios to measure (at least one).
        min_runs / max_runs:
            Bounds of the Section V-B variance-stopping loop; default to
            the runner's :class:`~repro.experiments.runner.RunnerSettings`.

        Returns
        -------
        ExperimentResult
            Exactly the runs the serial path would keep, for any backend
            and worker count; accounting lands in :attr:`stats`.  Under
            ``on_failure="skip"``/``"quarantine"`` a scenario whose runs
            were partly abandoned keeps its contiguous run prefix, and a
            scenario with no usable runs is dropped (``stats.degraded``
            reports either case).

        Raises
        ------
        ExperimentError
            On an empty scenario list, invalid run bounds, a task
            failure that exhausts its retry budget under
            ``on_failure="raise"``, an expired campaign deadline, or —
            in the degraded modes — when *every* scenario lost all of
            its runs.
        """
        if not scenarios:
            raise ExperimentError("campaign needs at least one scenario")
        settings = self.runner.settings
        lo = min_runs if min_runs is not None else settings.min_runs
        hi = max_runs if max_runs is not None else settings.max_runs
        if lo < 2 or hi < lo:
            raise ExperimentError(f"invalid run bounds: min={lo} max={hi}")

        backend = self._backend
        self.board = backend.board = self._new_board(
            now=time.monotonic(), quarantine=lambda payload: backend.quarantine(payload[1])
        )
        self.stats = ExecutorStats(scenarios=len(scenarios), board=self.board)
        self.progress_events = []
        self.ledger.reset()
        self._handles = {}
        self._bounds = (lo, hi)
        states = [_ScenarioState(self._first_task(s), target=lo) for s in scenarios]
        try:
            for state in states:
                self._advance(state)
            self._drive()
        finally:
            try:
                self._merge_worker_progress()
            finally:
                # drain_progress can raise (corrupt sidecar, dead spool
                # dir); the backend's worker pool must still come down,
                # or every failed drain leaks processes/threads.
                self._backend.shutdown()
        return self._result(states)

    def _merge_worker_progress(self) -> None:
        """Worker-reported progress (richer: true worker ids and
        worker-side wall times) supersedes the coordinator-side synthesis
        per task id — not wholesale, so tasks whose worker died before
        flushing its sidecar keep at least the synthesized record."""
        worker_reported = self._backend.drain_progress()
        if worker_reported:
            reported_ids = {event.task_id for event in worker_reported}
            merged = [
                event for event in self.progress_events
                if event.task_id not in reported_ids
            ]
            merged.extend(worker_reported)
            merged.sort(key=lambda event: event.at)
            self.progress_events = merged

    def _result(self, states: Sequence[_ScenarioState]) -> ExperimentResult:
        """The kept runs of every resolved scenario."""
        results = []
        for state in states:
            assert state.resolved is not None
            if state.resolved == 0:
                # Every run of this scenario was abandoned: drop it from
                # the result (ScenarioResult rejects empty run lists).
                self.stats.scenarios_dropped += 1
                self.stats.runs_discarded += len(state.runs)
                continue
            kept = [state.runs[i] for i in range(state.resolved)]
            self.stats.runs_kept += len(kept)
            self.stats.runs_discarded += len(state.runs) - len(kept)
            results.append(ScenarioResult(state.scenario, kept))
        if not results:
            raise ExperimentError(
                "campaign failed: every scenario lost all of its runs "
                f"({self.stats.failures} failures recorded in the ledger)"
            )
        return ExperimentResult(results)

    # ------------------------------------------------------------------
    def _first_task(self, scenario: MigrationScenario) -> RunTask:
        runner = self.runner
        key = None
        if self.cache is not None:
            key = RunCache.scenario_key(
                runner.seed, scenario, runner.settings,
                runner.migration_config, runner.stabilization,
            )
        return RunTask(
            seed=runner.seed,
            settings=runner.settings,
            migration_config=runner.migration_config,
            stabilization=runner.stabilization,
            scenario=scenario,
            run_start=0,
            key=key,
        )

    def _resolve_degraded(self, state: _ScenarioState) -> None:
        """Resolve a scenario whose wave completed with abandoned holes.

        The variance criterion needs the index-ordered energy prefix, so
        only the contiguous run prefix below the first hole is usable.
        If that prefix still satisfies the Section V-B stopping rule the
        scenario resolves exactly as the serial path would have; if not,
        the whole prefix is kept (degraded — possibly zero runs, in
        which case the scenario is dropped from the result).
        """
        lo, hi = self._bounds
        prefix = 0
        while prefix in state.runs:
            prefix += 1
        kept = None
        if prefix >= lo:
            energies = [state.energies[i] for i in range(prefix)]
            kept = resolve_run_count(
                energies, lo, hi, self.runner.settings.variance_delta
            )
        state.resolved = kept if kept is not None else prefix

    def _advance(self, state: _ScenarioState) -> None:
        """The wave planner: put a scenario's missing runs below its
        target on the board; evaluate the wave once it is complete."""
        lo, hi = self._bounds
        while state.resolved is None:
            missing = []
            for index in range(state.target):
                if index in state.runs or index in state.inflight or index in state.abandoned:
                    continue
                cached = (
                    self.cache.get(state.key, state.scenario, index)
                    if self.cache is not None and state.key is not None
                    else None
                )
                if cached is not None:
                    state.keep(index, cached)
                    self.stats.runs_cached += 1
                else:
                    missing.append(index)
            for span in _contiguous_spans(missing):
                task = state.task(span)
                state.inflight.update(span)
                self.board.add(task.task_id, state.scenario.label, span, (state, task))
            if state.inflight:
                return  # evaluate when the wave completes
            if any(i in state.abandoned for i in range(state.target)):
                self._resolve_degraded(state)
                return
            energies = [state.energies[i] for i in range(state.target)]
            kept = resolve_run_count(
                energies, lo, hi, self.runner.settings.variance_delta
            )
            if kept is not None:
                state.resolved = kept
                return
            state.target += 1  # the rule is undecided, so target < hi

    def _drive(self) -> None:
        """Submit what the board leases, wait, hand each completion on.

        The board supplies the retries that are due, the timeout of the
        next wait (a backoff expiry or the campaign deadline) and the
        deadline itself, on which every outstanding task is recorded and
        the campaign aborts.
        """
        board = self.board
        while board.active:
            now = time.monotonic()
            if board.overdue(now):
                outstanding = board.abort(now, at=time.time())
                for failure in outstanding:
                    self.ledger.record(failure)
                raise ExperimentError(
                    f"campaign deadline of {board.campaign_timeout:g}s exceeded "
                    f"with {len(outstanding)} tasks outstanding"
                )
            for state, task in board.lease_ready(now):
                submitted = time.perf_counter()
                self._handles[self._backend.submit(task)] = (state, task, submitted)
            timer = board.next_timer(now)
            if not self._handles:
                # Only backoff timers outstanding: nap (bounded, so the
                # campaign deadline stays responsive) until one is due.
                time.sleep(min(timer, 0.25))
                continue
            for future in self._backend.wait(list(self._handles), timeout=timer):
                self._on_done(future)

    def _on_done(self, future: Future) -> None:
        """The completion handler: one finished attempt, good or failed.

        A failed attempt goes to the board, which returns its ledger
        record and fate: ``retried`` keeps the runs in flight,
        ``fatal`` re-raises the task's exception, ``skipped`` and
        ``quarantined`` abandon the task's runs.
        """
        state, task, submitted = self._handles.pop(future)
        try:
            runs = future.result()
        except Exception as exc:  # noqa: BLE001 - the board decides its fate
            failure = self.ledger.record(self.board.fail(
                task.task_id, exc, time.monotonic(), at=time.time()
            ))
            if failure.fate == "fatal":
                raise exc
            if failure.fate != "retried":
                state.inflight.difference_update(task.run_indices)
                state.abandoned.update(task.run_indices)
        else:
            if len(runs) != task.run_count:
                raise ExperimentError(
                    f"task {task.task_id} for {state.scenario.label!r} returned "
                    f"{len(runs)} runs, expected {task.run_count}"
                )
            self.board.complete(task.task_id)
            self._collect(state, task, future, runs, submitted)
        if not state.inflight:
            self._advance(state)

    def _collect(
        self, state: _ScenarioState, task: RunTask, future: Future,
        runs: list[RunResult], submitted: float,
    ) -> None:
        """Keep a completed task's runs: progress events and cache puts."""
        walls = getattr(future, "walls", None)
        if walls is None:
            # A queue future resolves from the shared cache: its
            # worker timed each run and announced it, and that
            # event supersedes this placeholder (run_campaign).
            elapsed = time.perf_counter() - submitted
            walls = [elapsed / task.run_count] * task.run_count
        worker = getattr(future, "worker", self.backend)
        # Queue futures resolve *from* the shared cache (a worker already
        # deposited the result), so skip the re-write.
        put = (
            self.cache is not None
            and state.key is not None
            and not getattr(future, "result_in_cache", False)
        )
        key_payload = task.key_payload() if put else None
        for index, run, run_wall in zip(task.run_indices, runs, walls):
            state.keep(index, run)
            state.inflight.discard(index)
            self.stats.runs_executed += 1
            self.progress_events.append(ProgressEvent.for_run(
                run, task.run_id(index), worker, self.stats.runs_executed, run_wall
            ))
            if not put:
                continue
            try:
                self.cache.put(state.key, run, key_payload=key_payload)
            except (PersistenceError, OSError, ChaosError) as exc:
                # A failed cache write must never take the campaign
                # down: the run is already in hand.
                self.ledger.record(self.board.tolerate(task.task_id, RunFailure(
                    task_id=task.run_id(index),
                    scenario=state.scenario.label,
                    run_indices=(index,),
                    attempt=1,  # the board stamps the attempt and fate
                    worker=COORDINATOR,
                    kind=type(exc).__name__,
                    message=f"cache put failed: {exc}",
                    at=time.time(),
                )))
