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
  wave by wave until ``max_runs``.  Each wave's missing runs go out as
  :class:`RunTask` chunks split evenly across the backend's lanes
  (:meth:`CampaignExecutor._plan_wave_chunks`), a pure function of the
  wave and the lane count.  Top-up runs beyond the stopping
  point are discarded from the result (but kept in the cache),
  so the returned :class:`~repro.experiments.results.ExperimentResult` is
  **bit-identical** to the serial path for any worker count.

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
  completions, ``shutdown()`` when the campaign is over, with
  :attr:`capacity` introspection feeding the default wave size.  Any
  object implementing it (a cluster scheduler, an RPC fan-out, …) can
  back a campaign.

See ``docs/parallel_campaigns.md`` for the full design discussion.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Collection, Optional, Sequence, Set, Union

from repro.errors import ExperimentError
from repro.experiments.chaos import ChaosError, chaos_trip
from repro.experiments.design import MigrationScenario
from repro.experiments.faults import (
    ON_FAILURE_MODES,
    FailureLedger,
    RetryPolicy,
    RunFailure,
    failure_from_exception,
    run_with_deadline,
)
from repro.experiments.results import (
    ExperimentResult,
    ProgressEvent,
    RunResult,
    ScenarioResult,
    run_sample_count,
)
from repro.experiments.runner import RunnerSettings, ScenarioRunner, resolve_run_count
from repro.hypervisor.migration import MigrationConfig
from repro.io import PersistenceError, load_run_result, save_run_result
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
CACHE_KEY_SCHEMA = "wavm3-run-cache/4"


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
    (:func:`repro.io.save_task_spec`, ``wavm3-taskspec/3``) claimed by
    remote ``campaign-worker`` processes.  The task covers runs ``run_start``
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


def _execute_task(task: RunTask, run_timeout: Optional[float] = None) -> list[RunResult]:
    """Module-level trampoline so task dispatch can pickle.

    ``run_timeout`` arms the per-run watchdog
    (:func:`~repro.experiments.faults.run_with_deadline`): a task's
    deadline is ``run_timeout`` times its run count, so the budget scales
    with the dispatched work.
    """
    if run_timeout is None:
        return task.execute()
    count = task.run_count
    return run_with_deadline(
        task.execute,
        run_timeout * count,
        label=f"task {task.scenario.label!r} ({count} run{'s' if count > 1 else ''})",
    )


def _execute_task_timed(task, run_timeout: Optional[float] = None):
    """Like :func:`_execute_task`, plus the worker-side wall time.

    The process backend uses this so progress events report the run's
    true execution time — submit-to-collect timing on the coordinator
    would fold pool queueing and collection delay into ``wall_s``.
    """
    started = time.perf_counter()
    run = _execute_task(task, run_timeout)
    return run, time.perf_counter() - started


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
        entry = self._entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        meta = entry / "meta.json"
        if key_payload is not None and (not meta.exists() or not self._meta_ok(key)):
            # Atomic write: a half-written meta must never fail validation
            # for a concurrent reader of an otherwise-good entry.  The temp
            # name includes the thread id because in-process worker threads
            # (and the executor itself) may race on one entry's meta.
            tmp = meta.with_name(
                f"meta.json.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            tmp.write_text(
                json.dumps(key_payload, sort_keys=True, indent=1), encoding="utf-8"
            )
            tmp.replace(meta)
            self._meta_verdict[key] = True
        path = self._run_path(key, run.run_index)
        save_run_result(run, path)
        try:
            self.bytes_written += path.stat().st_size
        except OSError:
            pass  # counter only; the write itself already succeeded


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

    @property
    def capacity(self) -> Optional[int]:
        """How many tasks can usefully be in flight, or ``None`` if unknown.

        Feeds the executor's default wave size; a queue backend reports
        its currently-registered live workers here.
        """
        return None

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
            the future's exception.
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

    def __init__(self, fn, *args) -> None:
        super().__init__()
        started = time.perf_counter()
        try:
            result = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - mirrored to the caller
            self.set_exception(exc)
        else:
            #: True execution wall time — collection happens after *all*
            #: inline futures of a wave resolved, so the submit-to-collect
            #: clock the executor keeps would overstate serial runs.
            self.wall_s = time.perf_counter() - started
            self.set_result(result)


class SerialBackend(ExecutorBackend):
    """Inline execution: ``submit`` runs the task before returning."""

    name = "serial"

    def __init__(self, run_timeout: Optional[float] = None) -> None:
        self.run_timeout = run_timeout

    @property
    def capacity(self) -> Optional[int]:
        return 1

    def submit(self, task: RunTask) -> Future:
        return _SerialFuture(_execute_task, task, self.run_timeout)

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

    @property
    def capacity(self) -> Optional[int]:
        return self.jobs

    def submit(self, task: RunTask) -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        inner = self._pool.submit(_execute_task_timed, task, self.run_timeout)
        # Unwrap (runs, wall) into a run-list future carrying the
        # worker-side wall time as an attribute, mirroring _SerialFuture.
        outer: Future = Future()

        def _unwrap(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
            else:
                runs, wall = done.result()
                outer.wall_s = wall
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
    runs_discarded: int = 0   # top-up runs beyond the stopping point
    failures: int = 0         # failed task attempts (see the failure ledger)
    tasks_retried: int = 0    # failed attempts re-dispatched under the budget
    tasks_quarantined: int = 0  # tasks captured in a backend quarantine store
    runs_abandoned: int = 0   # run indices given up after budget exhaustion
    scenarios_dropped: int = 0  # scenarios with zero usable runs

    @property
    def runs_total(self) -> int:
        """All runs obtained, kept or not."""
        return self.runs_executed + self.runs_cached

    @property
    def degraded(self) -> bool:
        """Whether the campaign completed with less than it was asked for."""
        return self.runs_abandoned > 0 or self.scenarios_dropped > 0


class _ScenarioState:
    """Book-keeping of one scenario's adaptive run stream.

    ``first`` is the task of the stream's run 0; a dispatched chunk is
    the same task over another range (:meth:`task`).
    """

    __slots__ = ("first", "runs", "inflight", "abandoned", "target", "resolved")

    def __init__(self, first: RunTask, target: int) -> None:
        self.first = first
        self.runs: dict[int, RunResult] = {}
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

    def task(self, chunk: Sequence[int]) -> RunTask:
        """The task covering the contiguous run indices ``chunk``."""
        return dataclasses.replace(self.first, run_start=chunk[0], run_count=len(chunk))


class CampaignExecutor:
    """Fan a measurement campaign out across an execution backend.

    Parameters
    ----------
    runner:
        The :class:`ScenarioRunner` holding seed and protocol knobs; the
        executor never mutates it and reproduces exactly the runs its
        serial :meth:`~ScenarioRunner.run_campaign` would keep.
    jobs:
        Worker-process count; ``1`` selects the serial backend under
        ``backend="auto"``.
    backend:
        ``"process"``, ``"serial"``, ``"queue"``, ``"auto"`` (process iff
        ``jobs > 1``) — or any :class:`ExecutorBackend` instance.  The
        ``queue`` backend additionally requires ``cache_dir`` (the shared
        result store) and ``spool_dir`` (the shared task spool served by
        ``campaign-worker`` processes).
    cache_dir:
        Optional directory for the content-addressed :class:`RunCache`.
    wave_size:
        Top-up wave size once ``min_runs`` energies fail the variance
        criterion; defaults to the backend's :attr:`~ExecutorBackend.capacity`
        (falling back to ``jobs``).  Affects only how many runs beyond
        the stopping point may execute, never the returned result.
    batch_size:
        Runs per dispatched :class:`RunTask`.  ``1`` (default) dispatches
        one task per run; larger values chunk each scenario's contiguous
        missing-index spans into tasks of at most this many runs; ``None``
        sizes chunks automatically at dispatch time — the missing runs
        divided evenly across the backend's current capacity (falling
        back to ``jobs`` while capacity is unknown), so a late-growing
        worker fleet still gets per-dispatch-sized batches.  Cache
        entries, progress events and results stay per-run and
        bit-identical for every value.
    spool_dir:
        Shared spool directory of the ``queue`` backend (ignored otherwise).
    queue_options:
        Extra keyword arguments forwarded to
        :class:`~repro.experiments.queue_backend.QueueBackend`
        (``poll_interval``, ``stale_timeout``, ``stop_workers_on_shutdown``, …).
    max_retries:
        Attempt budget per task: a failed task is re-dispatched (after
        :class:`~repro.experiments.faults.RetryPolicy` backoff) until it
        has failed ``max_retries`` times in total, then handed to
        ``on_failure``.  The default ``1`` keeps the classic single-
        attempt semantics.  Values above 1 also bound the queue
        backend's stale-lease requeues (``max_requeues``), so a
        deterministically-crashing worker cannot recycle a task forever.
    on_failure:
        What exhausting the budget does: ``"raise"`` (default) aborts
        the campaign with the task's exception; ``"skip"`` abandons the
        task's run indices and completes the campaign degraded;
        ``"quarantine"`` additionally captures the task spec in the
        backend's quarantine store (the queue's ``quarantine/`` spool
        dir).  Either way every
        attempt lands in the failure ledger (:attr:`ledger`).
    retry_policy:
        Backoff schedule between attempts (default
        :class:`~repro.experiments.faults.RetryPolicy`: 0.5 s base,
        doubling, 30 s cap, ±25 % deterministic jitter).
    run_timeout:
        Per-run wall-clock watchdog for the in-process backends
        (serial/process), in seconds; a batch task gets ``run_timeout ×
        run_count``.  Distributed workers arm their own watchdog via
        ``campaign-worker --run-timeout``.
    campaign_timeout:
        Coordinator-side deadline in seconds for the whole campaign;
        on expiry every in-flight task is recorded in the ledger and the
        campaign aborts with :class:`~repro.errors.ExperimentError`
        instead of hanging.

    Raises
    ------
    ExperimentError
        On invalid ``jobs``/``wave_size``, an unknown backend name, or a
        backend whose required companion arguments are missing.
    """

    def __init__(
        self,
        runner: ScenarioRunner,
        jobs: int = 1,
        backend: Union[str, ExecutorBackend] = "auto",
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        wave_size: Optional[int] = None,
        spool_dir: Optional[Union[str, pathlib.Path]] = None,
        queue_options: Optional[dict] = None,
        batch_size: Optional[int] = 1,
        max_retries: int = 1,
        on_failure: str = "raise",
        retry_policy: Optional[RetryPolicy] = None,
        run_timeout: Optional[float] = None,
        campaign_timeout: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        if batch_size is not None and int(batch_size) < 1:
            raise ExperimentError(f"batch_size must be >= 1 or None, got {batch_size}")
        if int(max_retries) < 1:
            raise ExperimentError(f"max_retries must be >= 1, got {max_retries}")
        if on_failure not in ON_FAILURE_MODES:
            raise ExperimentError(
                f"unknown on_failure mode {on_failure!r} "
                f"(expected one of {ON_FAILURE_MODES})"
            )
        if run_timeout is not None and run_timeout <= 0:
            raise ExperimentError(f"run_timeout must be > 0, got {run_timeout}")
        if campaign_timeout is not None and campaign_timeout <= 0:
            raise ExperimentError(
                f"campaign_timeout must be > 0, got {campaign_timeout}"
            )
        self.runner = runner
        self.jobs = int(jobs)
        self.max_retries = int(max_retries)
        self.on_failure = on_failure
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.run_timeout = run_timeout
        self.campaign_timeout = campaign_timeout
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
        self._explicit_wave_size = None if wave_size is None else int(wave_size)
        if self._explicit_wave_size is not None and self._explicit_wave_size < 1:
            raise ExperimentError(f"wave_size must be >= 1, got {wave_size}")
        self.batch_size = None if batch_size is None else int(batch_size)
        self.stats = ExecutorStats()
        #: Attempt counter per task id of the current campaign.
        self._attempts: dict[str, int] = {}
        #: Per-run progress announcements of the most recent campaign:
        #: worker-reported events where the backend has a channel for them
        #: (queue sidecars), coordinator-synthesised
        #: completion records otherwise.
        self.progress_events: list[ProgressEvent] = []

    @property
    def wave_size(self) -> int:
        """The top-up wave size that would be dispatched right now.

        Re-evaluated per top-up rather than frozen at construction: a
        queue backend's capacity is the number of live workers, which is
        typically zero when the executor is built and grows as workers
        register.  While capacity is still ``None`` (cold start: no
        worker has heartbeat yet), the size deliberately falls back to
        ``jobs`` — dispatching optimistically is harmless, because spool
        tasks wait for whichever workers eventually join, and
        the next top-up re-reads the then-known capacity.
        """
        if self._explicit_wave_size is not None:
            return self._explicit_wave_size
        return max(self._backend.capacity or self.jobs, 1)

    def _plan_wave_chunks(
        self, missing: Sequence[int]
    ) -> list[tuple[int, ...]]:
        """Chunks (tuples of run indices) covering a wave's missing runs.

        Explicit ``batch_size`` cuts fixed-size chunks (with per-span
        tail remainders).  ``batch_size=None`` divides the wave evenly
        across the backend's *current* capacity (``jobs`` while capacity
        is unknown — the same cold-start fallback as :attr:`wave_size`):
        chunks of ``ceil(len(missing) / lanes)`` runs.  Either way the
        chunks are cut per contiguous span, so none bridges a cache
        hole.  Evaluated at dispatch time, so capacity appearing
        mid-campaign reshapes only subsequent waves; a plan never
        depends on what the executor has run before.
        """
        if not missing:
            return []
        if self.batch_size is not None:
            chunk_size = self.batch_size
        else:
            lanes = max(self._backend.capacity or self.jobs, 1)
            chunk_size = math.ceil(len(missing) / lanes)
        return [
            tuple(span[pos : pos + chunk_size])
            for span in _contiguous_spans(missing)
            for pos in range(0, len(span), chunk_size)
        ]

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

        options = dict(queue_options or {})
        if self.max_retries > 1:
            options.setdefault("max_requeues", self.max_retries)
        return QueueBackend(spool_dir, self.cache, **options)

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

        self.stats = ExecutorStats(scenarios=len(scenarios))
        self.progress_events = []
        self.ledger.reset()
        self._attempts = {}
        states = [_ScenarioState(self._first_task(s), target=lo) for s in scenarios]
        try:
            self._drive(states, lo, hi)
        finally:
            try:
                # Worker-reported progress (richer: true worker ids and
                # worker-side wall times) supersedes the coordinator-side
                # synthesis per task id — not wholesale, so tasks whose
                # worker died before flushing its sidecar keep at least
                # the synthesized record.
                worker_reported = self._backend.drain_progress()
                if worker_reported:
                    reported_ids = {event.task_id for event in worker_reported}
                    merged = [
                        event
                        for event in self.progress_events
                        if event.task_id not in reported_ids
                    ]
                    merged.extend(worker_reported)
                    merged.sort(key=lambda event: event.at)
                    self.progress_events = merged
            finally:
                # drain_progress can raise (corrupt sidecar, dead spool
                # dir); the backend's worker pool must still come down,
                # or every failed drain leaks processes/threads.
                self._backend.shutdown()

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

    def _resolve_degraded(self, state: _ScenarioState, lo: int, hi: int) -> None:
        """Resolve a scenario whose wave completed with abandoned holes.

        The variance criterion needs the index-ordered energy prefix, so
        only the contiguous run prefix below the first hole is usable.
        If that prefix still satisfies the Section V-B stopping rule the
        scenario resolves exactly as the serial path would have; if not,
        the whole prefix is kept (degraded — possibly zero runs, in
        which case the scenario is dropped from the result).
        """
        prefix = 0
        while prefix in state.runs:
            prefix += 1
        kept = None
        if prefix >= lo:
            energies = [
                state.runs[i].total_energy_j(HostRole.SOURCE)
                for i in range(prefix)
            ]
            kept = resolve_run_count(
                energies, lo, hi, self.runner.settings.variance_delta
            )
        state.resolved = kept if kept is not None else prefix

    def _drive(self, states: Sequence[_ScenarioState], lo: int, hi: int) -> None:
        """The wave scheduler: dispatch, collect, evaluate, top up.

        Task failures are routed through the retry budget: a failed
        task re-dispatches after :attr:`retry_policy` backoff until it
        has failed :attr:`max_retries` times, then :attr:`on_failure`
        decides between aborting (``raise``) and abandoning the task's
        indices (``skip``/``quarantine``), with every attempt recorded
        in :attr:`ledger`.
        """
        #: future -> (state, task, submit time on the perf_counter clock)
        pending: dict[Future, tuple[_ScenarioState, RunTask, float]] = {}
        #: Tasks sitting out their backoff: (ready_at, state, task).
        retry_queue: list[tuple[float, _ScenarioState, RunTask]] = []
        deadline = (
            time.monotonic() + self.campaign_timeout
            if self.campaign_timeout is not None
            else None
        )

        def dispatch(state: _ScenarioState, task: RunTask) -> None:
            """Submit one task (fresh or retry); count the attempt."""
            state.inflight.update(task.run_indices)
            self._attempts[task.task_id] = self._attempts.get(task.task_id, 0) + 1
            # Clock starts before submit: the serial backend executes
            # inside submit(), and its wall time must not read as zero.
            t_submit = time.perf_counter()
            future = self._backend.submit(task)
            pending[future] = (state, task, t_submit)

        def advance(state: _ScenarioState) -> None:
            """Dispatch missing runs below target; evaluate once complete."""
            while state.resolved is None:
                missing = []
                for index in range(state.target):
                    if (
                        index in state.runs
                        or index in state.inflight
                        or index in state.abandoned
                    ):
                        continue
                    cached = (
                        self.cache.get(state.key, state.scenario, index)
                        if self.cache is not None and state.key is not None
                        else None
                    )
                    if cached is not None:
                        state.runs[index] = cached
                        self.stats.runs_cached += 1
                    else:
                        missing.append(index)
                for chunk in self._plan_wave_chunks(missing):
                    dispatch(state, state.task(chunk))
                if state.inflight:
                    return  # evaluate when the wave completes
                if any(i in state.abandoned for i in range(state.target)):
                    self._resolve_degraded(state, lo, hi)
                    return
                energies = [
                    state.runs[i].total_energy_j(HostRole.SOURCE)
                    for i in range(state.target)
                ]
                kept = resolve_run_count(
                    energies, lo, hi, self.runner.settings.variance_delta
                )
                if kept is not None:
                    state.resolved = kept
                    return
                state.target = min(hi, state.target + self.wave_size)

        def fail(state: _ScenarioState, task: RunTask, exc: BaseException) -> None:
            """One failed attempt: retry under budget, else fate it."""
            task_id = task.task_id
            attempt = self._attempts.get(task_id, 1)
            failure = failure_from_exception(
                exc,
                task_id=task_id,
                scenario=state.scenario.label,
                run_indices=tuple(task.run_indices),
                attempt=attempt,
                worker=self.backend,
            )
            self.stats.failures += 1
            retryable = getattr(exc, "retryable", True)
            if retryable and attempt < self.max_retries:
                self.ledger.record(failure.with_fate("retried"))
                self.stats.tasks_retried += 1
                delay = self.retry_policy.delay_s(attempt, task_id)
                retry_queue.append((time.monotonic() + delay, state, task))
                return  # indices stay inflight until the re-dispatch
            if self.on_failure == "raise":
                self.ledger.record(failure.with_fate("fatal"))
                raise exc
            fate = "skipped"
            if self.on_failure == "quarantine" and self._backend.quarantine(task):
                fate = "quarantined"
                self.stats.tasks_quarantined += 1
            self.ledger.record(failure.with_fate(fate))
            state.inflight.difference_update(task.run_indices)
            state.abandoned.update(task.run_indices)
            self.stats.runs_abandoned += task.run_count
            if not state.inflight:
                advance(state)

        for state in states:
            advance(state)
        while pending or retry_queue:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                self._abort_on_deadline(pending, retry_queue)
            if retry_queue:
                due = [entry for entry in retry_queue if entry[0] <= now]
                if due:
                    retry_queue[:] = [e for e in retry_queue if e[0] > now]
                    for _, state, task in due:
                        dispatch(state, task)
            if not pending:
                # Only backoff timers outstanding: nap (bounded, so the
                # campaign deadline stays responsive) until one is due.
                next_ready = min(entry[0] for entry in retry_queue)
                limit = next_ready if deadline is None else min(next_ready, deadline)
                time.sleep(min(max(limit - time.monotonic(), 0.0), 0.25))
                continue
            timeout = None
            bounds = []
            if retry_queue:
                bounds.append(min(entry[0] for entry in retry_queue) - now)
            if deadline is not None:
                bounds.append(deadline - now)
            if bounds:
                timeout = max(min(bounds), 0.0)
            done = self._backend.wait(list(pending), timeout=timeout)
            for future in done:
                state, task, submitted = pending.pop(future)
                try:
                    runs = future.result()
                except Exception as exc:  # noqa: BLE001 - routed through the budget
                    fail(state, task, exc)
                    continue
                if len(runs) != task.run_count:
                    raise ExperimentError(
                        f"task {task.task_id} for {state.scenario.label!r} returned "
                        f"{len(runs)} runs, expected {task.run_count}"
                    )
                total_wall = getattr(future, "wall_s", None)
                if total_wall is None:
                    total_wall = time.perf_counter() - submitted
                # Per-run accounting for a multi-run task splits its wall
                # evenly: individual run walls are not observable from
                # the coordinator side of a batched dispatch.
                wall = max(total_wall / len(runs), 1e-9)
                worker = getattr(future, "worker", None) or self._backend.name
                for index, run in zip(task.run_indices, runs):
                    state.runs[index] = run
                    state.inflight.discard(index)
                    self.stats.runs_executed += 1
                    samples = run_sample_count(run)
                    event = ProgressEvent(
                        task_id=task.run_id(index),
                        scenario=state.scenario.label,
                        run_index=index,
                        worker=worker,
                        runs_completed=self.stats.runs_executed,
                        samples=samples,
                        wall_s=wall,
                        samples_per_s=samples / wall,
                        at=time.time(),
                    )
                    self.progress_events.append(event)
                    # Queue futures resolve *from* the shared cache (a
                    # worker already deposited the result), so skip the
                    # re-write.
                    if (
                        self.cache is not None
                        and state.key is not None
                        and not getattr(future, "result_in_cache", False)
                    ):
                        try:
                            self.cache.put(state.key, run, key_payload=task.key_payload())
                        except (PersistenceError, OSError, ChaosError) as exc:
                            # A failed cache write must never take the
                            # campaign down: the run is already in hand.
                            self.ledger.record(
                                RunFailure(
                                    task_id=task.run_id(index),
                                    scenario=state.scenario.label,
                                    run_indices=(index,),
                                    attempt=self._attempts.get(task.task_id, 1),
                                    worker=self.backend,
                                    kind=type(exc).__name__,
                                    message=f"cache put failed: {exc}",
                                    at=time.time(),
                                    fate="tolerated",
                                )
                            )
                            self.stats.failures += 1
                if not state.inflight:
                    advance(state)

    def _abort_on_deadline(self, pending: dict, retry_queue: list) -> None:
        """Record every outstanding task and abort: deadlines never hang."""
        stamp = time.time()
        outstanding = [task for (_state, task, _submitted) in pending.values()] + [
            task for (_ready, _state, task) in retry_queue
        ]
        for task in outstanding:
            self.ledger.record(
                RunFailure(
                    task_id=task.task_id,
                    scenario=task.scenario.label,
                    run_indices=tuple(task.run_indices),
                    attempt=self._attempts.get(task.task_id, 1),
                    worker=self.backend,
                    kind="CampaignTimeout",
                    message=(
                        f"campaign deadline of {self.campaign_timeout:g}s "
                        "expired with the task outstanding"
                    ),
                    at=stamp,
                    fate="fatal",
                )
            )
            self.stats.failures += 1
        raise ExperimentError(
            f"campaign deadline of {self.campaign_timeout:g}s exceeded "
            f"with {len(outstanding)} tasks outstanding"
        )
