"""Network campaign service: HTTP task handoff without shared storage.

The file-based queue backend (:mod:`repro.experiments.queue_backend`)
needs a directory every participant can see; this module removes even
that requirement.  The coordinator embeds a tiny stdlib HTTP service
(:class:`CampaignHTTPServer`, built on :class:`http.server.ThreadingHTTPServer`)
and remote workers need nothing but its URL:

* ``POST /claim`` — a worker asks for work; the coordinator leases the
  oldest open :class:`~repro.experiments.executor.RunTask` (one or more
  runs of one scenario) and answers with its ``wavm3-taskspec/2`` JSON
  (the same spec format the spool backend writes to disk);
* ``POST /heartbeat`` — the worker renews its lease while executing;
* ``POST /result`` — the worker uploads the task's finished runs (one
  ``wavm3-runbatch/1`` pickle envelope, whatever the run count) or a
  JSON failure record; the coordinator validates the upload and
  deposits each run straight into its own content-addressed
  :class:`~repro.experiments.executor.RunCache`;
* ``POST /progress`` — the worker announces a completed run (the
  ``wavm3-progress/1`` JSON document: task id, runs completed,
  samples/sec, wall time).  Strictly observational — the coordinator
  keeps a bounded per-worker history for ``/status`` and the campaign
  summary, and a malformed announcement is rejected with 400 without
  touching the task state;
* ``GET /status`` — live campaign observability (open/leased/completed/
  failed tasks, worker liveness, per-worker progress) for
  ``wavm3 campaign-status`` and its ``--follow`` mode.

:class:`HttpBackend` implements the :class:`~repro.experiments.executor.ExecutorBackend`
protocol (``submit``/``wait``/``shutdown``/``capacity``), so the central
Section V-B variance-stopping loop is untouched and campaign results are
**bit-identical** to the serial path.  Fault tolerance mirrors the queue
backend's lease semantics: a claim whose heartbeat goes stale is
requeued for another worker, a malformed result upload is rejected with
HTTP 400 and its task requeued, and worker-side failures surface
centrally as :class:`~repro.errors.ExperimentError`.

.. warning::
    Run results travel as pickles (required for bit-identity), and
    unpickling executes embedded code — bind the service to an interface
    reachable only by trusted workers (loopback, a lab LAN, an SSH
    tunnel).  The service performs no authentication.

See ``docs/parallel_campaigns.md`` ("Network campaigns") and
``docs/architecture.md`` for the design discussion.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import traceback
import urllib.error
import urllib.request
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple, Union

from repro.errors import ExperimentError
from repro.experiments.chaos import ChaosError, chaos_bytes, chaos_trip
from repro.experiments.executor import ExecutorBackend, RunCache, RunTask
from repro.experiments.faults import (
    RunFailure,
    TaskFailure,
    run_with_deadline,
    traceback_digest,
)
from repro.experiments.queue_backend import STATUS_SCHEMA, QueueStats, WorkerStats
from repro.experiments.results import ProgressEvent, run_sample_count
from repro.io import (
    PersistenceError,
    dump_run_batch_bytes,
    load_run_batch_bytes,
    progress_event_from_dict,
    progress_event_to_dict,
    task_spec_from_dict,
    task_spec_to_dict,
)

__all__ = [
    "CampaignHTTPServer",
    "HttpBackend",
    "fetch_status",
    "parse_address",
    "run_http_worker",
    "STATUS_SCHEMA",
]



def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` string (or pass through a ``(host, port)`` pair).

    Parameters
    ----------
    address:
        ``"HOST:PORT"`` (port may be ``0`` for an ephemeral port) or an
        already-split ``(host, port)`` tuple.

    Returns
    -------
    tuple[str, int]
        The ``(host, port)`` pair.

    Raises
    ------
    ExperimentError
        If the string is not of the form ``HOST:PORT`` with an integer,
        non-negative port.
    """
    if isinstance(address, tuple):
        host, port = str(address[0]), int(address[1])
        sep = ":"
    else:
        host, sep, port_text = str(address).rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
    if not sep or not host or not 0 <= port <= 65535:
        raise ExperimentError(
            f"serve address must be HOST:PORT with port 0-65535 "
            f"(e.g. 127.0.0.1:8765), got {address!r}"
        )
    return host, port


# ---------------------------------------------------------------------------
# Coordinator state
# ---------------------------------------------------------------------------
@dataclass
class _Lease:
    """One claimed task: who holds it and when they last heartbeat."""

    worker: str
    last_beat: float  # time.monotonic()


class _HttpFuture(Future):
    """A pending HTTP task; resolved by the coordinator's request handlers."""

    def __init__(self, task, task_id: str) -> None:
        super().__init__()
        self.task = task
        self.task_id = task_id
        #: The coordinator deposits the uploaded result into the cache
        #: itself, so the executor must not redundantly re-write it.
        self.result_in_cache = True


@dataclass
class _State:
    """Thread-shared coordinator bookkeeping (guard every access with ``lock``)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Open tasks in submit (FIFO) order: task_id -> RunTask.
    open: "OrderedDict[str, RunTask]" = field(default_factory=OrderedDict)
    #: Claimed tasks: task_id -> _Lease.
    leases: dict = field(default_factory=dict)
    #: Every submitted task's future, kept for duplicate detection.
    futures: dict = field(default_factory=dict)
    #: worker_id -> monotonic instant of the last request it made.
    workers: dict = field(default_factory=dict)
    #: Chronological worker progress announcements (bounded; see
    #: ``HttpBackend.progress_history``).
    progress: list = field(default_factory=list)
    #: Task ids the coordinator quarantined after exhausting their retry
    #: budget (the HTTP analogue of the spool's ``quarantine/`` dir).
    quarantined: set = field(default_factory=set)
    completed: int = 0
    failed: int = 0
    stopping: bool = False


class CampaignHTTPServer(ThreadingHTTPServer):
    """The coordinator's embedded HTTP service (one per :class:`HttpBackend`).

    A thin :class:`~http.server.ThreadingHTTPServer` carrying the shared
    coordinator state; all protocol logic lives in the request handler.
    Exposed separately from :class:`HttpBackend` so tests (and curious
    operators) can drive the wire protocol directly.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], backend: "HttpBackend") -> None:
        self.backend = backend
        super().__init__(address, _CampaignRequestHandler)


class _CampaignRequestHandler(BaseHTTPRequestHandler):
    """The five-endpoint campaign wire protocol."""

    server: CampaignHTTPServer
    server_version = "wavm3-campaign/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # an HTTP access log per heartbeat would drown the campaign output

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length > 0 else b""

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Optional[dict]:
        try:
            payload = json.loads(self._read_body().decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- endpoints -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.split("?", 1)[0] == "/status":
            self._send_json(200, self.server.backend._status_document())
        else:
            self._send_json(404, {"error": f"unknown endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        if path == "/claim":
            self._handle_claim()
        elif path == "/heartbeat":
            self._handle_heartbeat()
        elif path == "/result":
            self._handle_result()
        elif path == "/progress":
            self._handle_progress()
        else:
            self._send_json(404, {"error": f"unknown endpoint {self.path!r}"})

    def _handle_claim(self) -> None:
        payload = self._read_json_body()
        if payload is None or not payload.get("worker"):
            self._send_json(400, {"error": "claim body must be JSON with a 'worker' id"})
            return
        self._send_json(200, self.server.backend._claim(str(payload["worker"])))

    def _handle_heartbeat(self) -> None:
        payload = self._read_json_body()
        if payload is None or not payload.get("worker") or not payload.get("task_id"):
            self._send_json(
                400, {"error": "heartbeat body must be JSON with 'worker' and 'task_id'"}
            )
            return
        ok = self.server.backend._heartbeat(
            str(payload["worker"]), str(payload["task_id"])
        )
        self._send_json(200, {"ok": ok})

    def _handle_progress(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            self._send_json(400, {"error": "progress body must be a JSON object"})
            return
        try:
            event = progress_event_from_dict(payload)
        except PersistenceError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self.server.backend._record_progress(event)
        self._send_json(200, {"ok": True})

    def _handle_result(self) -> None:
        task_id = self.headers.get("X-Wavm3-Task-Id", "")
        worker = self.headers.get("X-Wavm3-Worker", "?")
        body = self._read_body()
        content_type = (self.headers.get("Content-Type") or "").split(";", 1)[0].strip()
        backend = self.server.backend
        if content_type == "application/json":
            payload = None
            try:
                decoded = json.loads(body.decode("utf-8"))
                payload = decoded if isinstance(decoded, dict) else None
            except (json.JSONDecodeError, UnicodeDecodeError):
                pass
            if payload is None or "error" not in payload:
                self._send_json(
                    400, {"error": "failure report must be JSON with an 'error' field"}
                )
                return
            code, reply = backend._record_failure(
                task_id, worker,
                str(payload.get("error")), payload.get("traceback"),
                kind=payload.get("kind"),
                retryable=bool(payload.get("retryable", True)),
            )
        else:
            code, reply = backend._record_result(task_id, worker, body)
        self._send_json(code, reply)


# ---------------------------------------------------------------------------
# Coordinator backend
# ---------------------------------------------------------------------------
class HttpBackend(ExecutorBackend):
    """Coordinator end of the HTTP task-handoff campaign service.

    Construction binds and starts the embedded :class:`CampaignHTTPServer`
    immediately (in a daemon thread), so workers can connect before the
    first ``submit()``.

    Parameters
    ----------
    address:
        ``HOST:PORT`` string or ``(host, port)`` pair to bind; port ``0``
        selects an ephemeral port (read it back from :attr:`address`).
    cache:
        The coordinator's :class:`~repro.experiments.executor.RunCache`;
        validated worker uploads are deposited here, and the executor's
        usual cache lookup makes warm reruns perform zero runs.
    stale_timeout:
        Seconds without a heartbeat before a lease is considered
        abandoned and its task requeued.  Must comfortably exceed the
        workers' heartbeat cadence.
    stop_workers_on_shutdown:
        Answer subsequent ``/claim`` requests with ``{"stop": true}``
        once the campaign finishes, telling workers to exit, and keep
        serving for up to ``stop_grace_s`` so they can hear it.
    worker_fresh_s:
        A worker whose last request is younger than this counts as live
        for :attr:`capacity` and ``/status``.
    stop_grace_s:
        How long :meth:`shutdown` keeps the service up waiting for live
        workers to poll in and receive the stop signal.
    max_requeues:
        Stale-lease requeue budget per task: after a task's lease expires
        this many times its future fails with a non-retryable
        :class:`~repro.experiments.faults.TaskFailure` instead of being
        requeued forever.  ``None`` (the default) keeps the legacy
        unbounded behaviour.

    Raises
    ------
    ExperimentError
        On a malformed address, non-positive ``stale_timeout``, negative
        ``max_requeues``, or if the address cannot be bound.
    """

    name = "http"

    #: Bound on the retained ``/progress`` history: a campaign announces
    #: one event per run, so this comfortably covers real campaigns while
    #: keeping a misbehaving worker from growing coordinator memory.
    progress_history = 4096

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        cache: RunCache,
        stale_timeout: float = 60.0,
        stop_workers_on_shutdown: bool = False,
        worker_fresh_s: float = 15.0,
        stop_grace_s: float = 10.0,
        max_requeues: Optional[int] = None,
    ) -> None:
        if stale_timeout <= 0:
            raise ExperimentError(f"stale_timeout must be positive, got {stale_timeout}")
        if max_requeues is not None and max_requeues < 0:
            raise ExperimentError(f"max_requeues must be >= 0, got {max_requeues}")
        self.cache = cache
        self.stale_timeout = float(stale_timeout)
        self.max_requeues = max_requeues
        self._requeue_counts: dict = {}
        self.stop_workers_on_shutdown = bool(stop_workers_on_shutdown)
        self.worker_fresh_s = float(worker_fresh_s)
        self.stop_grace_s = float(stop_grace_s)
        self.stats = QueueStats()
        self._state = _State()
        host, port = parse_address(address)
        try:
            self._server = CampaignHTTPServer((host, port), self)
        except OSError as exc:
            raise ExperimentError(f"cannot bind campaign service to {host}:{port}: {exc}") from exc
        self._thread = threading.Thread(
            # serve_forever's default 0.5 s poll makes every coordinator
            # shutdown stall half a second; 50 ms is still negligible load.
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name="wavm3-campaign-http",
            daemon=True,
        )
        self._thread.start()

    # -- introspection ---------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves port ``0``)."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """The service URL workers should ``--connect`` to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def active_workers(self) -> int:
        """Workers whose last request is fresher than ``worker_fresh_s``."""
        now = time.monotonic()
        with self._state.lock:
            return sum(
                1 for seen in self._state.workers.values()
                if now - seen <= self.worker_fresh_s
            )

    @property
    def capacity(self) -> Optional[int]:
        """Live worker count, or ``None`` while no worker has polled yet."""
        return self.active_workers() or None

    # -- ExecutorBackend protocol ----------------------------------------
    def submit(self, task: RunTask) -> Future:
        """Queue one task for remote execution.

        Parameters
        ----------
        task:
            The :class:`~repro.experiments.executor.RunTask` to execute;
            must carry its cache ``key`` (the HTTP backend always runs
            with a coordinator-side cache).

        Returns
        -------
        Future
            Resolved by the service threads with the task's runs when a
            worker uploads them (or with its failure record).

        Raises
        ------
        ExperimentError
            If the task has no cache key.
        """
        if task.key is None:
            raise ExperimentError("queue tasks need a cache key")
        task_id = task.task_id
        future = _HttpFuture(task, task_id)
        with self._state.lock:
            self._state.open[task_id] = task
            self._state.futures[task_id] = future
            # A resubmit (executor-driven retry) starts a fresh stale-lease
            # budget for the task.
            self._requeue_counts.pop(task_id, None)
            self.stats.tasks_submitted += 1
        return future

    def shutdown(self) -> None:
        """Stop the embedded service (after the stop-signal grace dance)."""
        if self.stop_workers_on_shutdown:
            with self._state.lock:
                self._state.stopping = True
            deadline = time.monotonic() + self.stop_grace_s
            # Each live worker that polls /claim while stopping is told to
            # exit and dropped from the registry; wait for the registry to
            # drain so CLI workers exit cleanly instead of seeing ECONNREFUSED.
            while time.monotonic() < deadline and self.active_workers() > 0:
                time.sleep(0.05)
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def quarantine(self, task: RunTask) -> bool:
        """Retire a task whose retry budget is exhausted.

        The HTTP analogue of the spool's ``quarantine/`` directory: the
        task id joins the coordinator's quarantine set (surfaced via
        ``GET /status``) and leaves the open/lease bookkeeping for good.
        """
        with self._state.lock:
            self._state.open.pop(task.task_id, None)
            self._state.leases.pop(task.task_id, None)
            self._state.quarantined.add(task.task_id)
            self.stats.tasks_quarantined += 1
        return True

    # -- handler entry points (called from service threads) ---------------
    def _requeue_stale_locked(self) -> None:
        """Requeue leases whose heartbeat expired.  Caller holds the lock.

        A ``max_requeues`` budget bounds the requeues per task: once
        exhausted, the future fails with a non-retryable
        :class:`TaskFailure` (fate decided by the coordinator's
        ``on_failure`` policy) instead of cycling through dead workers
        forever.
        """
        now = time.monotonic()
        expired = [
            (task_id, lease)
            for task_id, lease in self._state.leases.items()
            if now - lease.last_beat > self.stale_timeout
        ]
        for task_id, lease in expired:
            self._state.leases.pop(task_id)
            future = self._state.futures.get(task_id)
            if future is None or future.done():
                continue
            spent = self._requeue_counts.get(task_id, 0)
            if self.max_requeues is not None and spent >= self.max_requeues:
                self.stats.leases_failed += 1
                self._state.failed += 1
                task = future.task
                failure = RunFailure(
                    task_id=task_id,
                    scenario=task.scenario.label,
                    run_indices=tuple(task.run_indices),
                    attempt=1,  # placeholder; the coordinator tracks attempts
                    worker=lease.worker,
                    kind="StaleLease",
                    message=(
                        f"lease expired {spent + 1} times "
                        f"(stale-requeue budget {self.max_requeues} exhausted)"
                    ),
                    at=time.time(),
                )
                future.set_exception(
                    TaskFailure(
                        f"http task {task_id} failed on {lease.worker}: "
                        f"{failure.message}",
                        failure=failure,
                        retryable=False,
                    )
                )
                continue
            self._requeue_counts[task_id] = spent + 1
            self._state.open[task_id] = future.task
            self.stats.tasks_requeued += 1

    def _claim(self, worker: str) -> dict:
        with self._state.lock:
            if self._state.stopping:
                self._state.workers.pop(worker, None)
                return {"task_id": None, "stop": True}
            self._state.workers[worker] = time.monotonic()
            self._requeue_stale_locked()
            while self._state.open:
                task_id, task = self._state.open.popitem(last=False)
                future = self._state.futures.get(task_id)
                if future is not None and future.done():
                    continue  # resolved by a late upload while requeued
                self._state.leases[task_id] = _Lease(worker, time.monotonic())
                return {
                    "task_id": task_id,
                    "stop": False,
                    "lease_timeout_s": self.stale_timeout,
                    "spec": task_spec_to_dict(task),
                }
            return {"task_id": None, "stop": False}

    def _record_progress(self, event: ProgressEvent) -> None:
        """Store one worker progress announcement (service-thread entry)."""
        with self._state.lock:
            self._state.workers[event.worker] = time.monotonic()
            self._state.progress.append(event)
            if len(self._state.progress) > self.progress_history:
                del self._state.progress[: -self.progress_history]

    def drain_progress(self) -> list:
        """The ``/progress`` announcements received this campaign.

        A stale-requeued task re-executed by a second worker announces
        twice; only the latest announcement per task survives, so the
        campaign summary counts each run exactly once.  (``/status``
        keeps the raw per-worker view — its ``progress_events`` is an
        event count, not a run count.)
        """
        with self._state.lock:
            events = list(self._state.progress)
        latest = {e.task_id: e for e in events}
        return sorted(latest.values(), key=lambda e: e.at)

    def _heartbeat(self, worker: str, task_id: str) -> bool:
        with self._state.lock:
            if self._state.stopping:
                return False
            self._state.workers[worker] = time.monotonic()
            lease = self._state.leases.get(task_id)
            if lease is None or lease.worker != worker:
                return False  # lease lost (requeued as stale) — worker should note it
            lease.last_beat = time.monotonic()
            return True

    def _release_for_retry(self, task_id: str) -> None:
        """Drop a lease and put the task back in the open queue (lock held)."""
        self._state.leases.pop(task_id, None)
        future = self._state.futures.get(task_id)
        if (
            future is not None
            and not future.done()
            and task_id not in self._state.open
        ):
            self._state.open[task_id] = future.task

    def _holds_lease(self, task_id: str, worker: str) -> bool:
        """Whether ``worker`` is the current lease holder (lock held)."""
        lease = self._state.leases.get(task_id)
        return lease is not None and lease.worker == worker

    def _record_result(self, task_id: str, worker: str, body: bytes) -> Tuple[int, dict]:
        with self._state.lock:
            self._state.workers[worker] = time.monotonic()
            future = self._state.futures.get(task_id)
        if future is None:
            return 404, {"error": f"unknown task {task_id!r}"}
        task = future.task
        try:
            runs = load_run_batch_bytes(body, origin=f"result upload from {worker}")
            uploaded = [r.run_index for r in runs]
            if uploaded != list(task.run_indices) or any(
                r.scenario != task.scenario for r in runs
            ):
                raise PersistenceError(
                    f"uploaded runs {uploaded} do not cover task {task_id} "
                    f"({task.scenario.label!r} runs {task.run_start}"
                    f"..{task.run_start + task.run_count - 1})"
                )
        except PersistenceError as exc:
            with self._state.lock:
                self.stats.corrupt_results += 1
                # Only the lease holder's garbage re-opens the task; a
                # zombie that already lost its lease must not evict the
                # live holder (or re-open a task another worker is on).
                if self._holds_lease(task_id, worker):
                    self._release_for_retry(task_id)
            return 400, {"error": str(exc)}
        # A *valid* upload is accepted from anyone holding the right
        # bytes — runs are deterministic, so a worker that lost its lease
        # merely delivers the identical result early.
        # File I/O outside the lock; RunCache writes are atomic.
        for run in runs:
            self.cache.put(task.key, run, key_payload=task.key_payload())
        with self._state.lock:
            if self._holds_lease(task_id, worker):
                self._state.leases.pop(task_id, None)
            # The task may have been stale-requeued before this upload
            # arrived: completing it must also retire the queue entry.
            self._state.open.pop(task_id, None)
            if future.done():
                return 200, {"ok": True, "duplicate": True}
            self._state.completed += 1
            future.worker = worker  # executor-side progress attribution
            future.set_result(runs)
        return 200, {"ok": True}

    def _record_failure(
        self, task_id: str, worker: str, error: str, trace: Optional[str],
        kind: Optional[str] = None, retryable: bool = True,
    ) -> Tuple[int, dict]:
        with self._state.lock:
            self._state.workers[worker] = time.monotonic()
            future = self._state.futures.get(task_id)
            if future is None:
                return 404, {"error": f"unknown task {task_id!r}"}
            if future.done():
                return 200, {"ok": True, "duplicate": True}
            if not self._holds_lease(task_id, worker):
                # A worker that lost its lease reporting failure must not
                # abort a campaign whose task was requeued to (or is being
                # re-executed by) someone else.
                return 200, {"ok": True, "ignored": True}
            self._state.leases.pop(task_id, None)
            self._state.open.pop(task_id, None)
            self._state.failed += 1
            message = f"http task {task_id} failed on {worker}: {error}"
            if trace:
                message = f"{message}\n{trace}"
            task = future.task
            failure = RunFailure(
                task_id=task_id,
                scenario=task.scenario.label,
                run_indices=tuple(task.run_indices),
                attempt=1,  # placeholder; the coordinator tracks attempts
                worker=worker,
                kind=kind or "WorkerFailure",
                message=error,
                traceback_digest=traceback_digest(trace),
                at=time.time(),
            )
            future.set_exception(
                TaskFailure(message, failure=failure, retryable=bool(retryable))
            )
        return 200, {"ok": True}

    def _status_document(self) -> dict:
        """Assemble the ``/status`` reply.  Strictly read-only: probing a
        campaign must not requeue leases or otherwise disturb it (the
        stale-lease sweep runs on ``/claim``, where a worker is present
        to pick the requeued task up)."""
        now = time.monotonic()
        wall_now = time.time()
        with self._state.lock:
            stale = sum(
                1 for lease in self._state.leases.values()
                if now - lease.last_beat > self.stale_timeout
            )
            workers = [
                {
                    "worker": worker,
                    "age_s": round(now - seen, 3),
                    "live": now - seen <= self.worker_fresh_s,
                }
                for worker, seen in sorted(self._state.workers.items())
            ]
            latest: dict = {}
            for event in self._state.progress:
                latest[event.worker] = event
            progress = [
                {
                    "worker": event.worker,
                    "runs_completed": event.runs_completed,
                    "samples_per_s": round(event.samples_per_s, 1),
                    "last_task": f"{event.scenario}#{event.run_index}",
                    "age_s": round(max(wall_now - event.at, 0.0), 3),
                }
                for event in sorted(latest.values(), key=lambda e: e.worker)
            ]
            progress_events = len(self._state.progress)
            return {
                "schema": STATUS_SCHEMA,
                "backend": self.name,
                "tasks_open": len(self._state.open),
                "tasks_leased": len(self._state.leases),
                "leases_stale": stale,
                "tasks_completed": self._state.completed,
                "tasks_failed": self._state.failed,
                "tasks_quarantined": len(self._state.quarantined),
                "quarantined": sorted(self._state.quarantined),
                "tasks_submitted": self.stats.tasks_submitted,
                "tasks_requeued": self.stats.tasks_requeued,
                "corrupt_results": self.stats.corrupt_results,
                "workers": workers,
                "workers_live": sum(1 for w in workers if w["live"]),
                "progress": progress,
                "progress_events": progress_events,
                "cache": self.cache.counters(),
                "stopping": self._state.stopping,
            }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _request(
    url: str,
    path: str,
    data: Optional[bytes] = None,
    headers: Optional[dict] = None,
    timeout: float = 10.0,
) -> dict:
    """One HTTP exchange with the coordinator, JSON reply decoded.

    Raises :class:`urllib.error.URLError` when the coordinator is
    unreachable, and :class:`urllib.error.HTTPError` (a ``URLError``
    subclass) on any non-2xx status — callers that treat a 4xx as a
    protocol signal (e.g. a rejected result upload) must catch it.
    """
    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=data,
        headers=headers or {},
        method="GET" if data is None else "POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _post_json(url: str, path: str, payload: dict, timeout: float = 10.0) -> dict:
    return _request(
        url,
        path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        timeout=timeout,
    )


def fetch_status(url: str, timeout: float = 10.0) -> dict:
    """Fetch a campaign service's ``/status`` document.

    Parameters
    ----------
    url:
        The coordinator's base URL (``http://host:port``).
    timeout:
        Socket timeout in seconds.

    Returns
    -------
    dict
        The ``wavm3-campaign-status/1`` JSON document.

    Raises
    ------
    ExperimentError
        If the coordinator is unreachable or answers with something
        other than a status document.
    """
    try:
        payload = _request(url, "/status", timeout=timeout)
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot fetch campaign status from {url}: {exc}") from exc
    if payload.get("schema") != STATUS_SCHEMA:
        raise ExperimentError(
            f"{url}/status is not a campaign service "
            f"(schema {payload.get('schema')!r}, want {STATUS_SCHEMA!r})"
        )
    return payload


class _HttpHeartbeat(threading.Thread):
    """Renews one lease over HTTP while the worker executes its task."""

    def __init__(
        self, url: str, worker: str, task_id: str, interval_s: float,
        timeout: float = 10.0,
    ) -> None:
        super().__init__(daemon=True)
        self._url = url
        self._worker = worker
        self._task_id = task_id
        self._interval_s = interval_s
        self._timeout = timeout
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._interval_s):
            try:
                chaos_trip("heartbeat", tag=self._task_id)
                reply = _post_json(
                    self._url, "/heartbeat",
                    {"worker": self._worker, "task_id": self._task_id},
                    timeout=self._timeout,
                )
            except ChaosError:
                return  # injected beat loss: the lease goes stale server-side
            except (urllib.error.URLError, OSError):
                continue  # transient outage: keep executing, retry next tick
            if not reply.get("ok"):
                return  # lease lost (stale-requeued): stop renewing; the
                #         eventual duplicate upload is harmless

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=self._interval_s + 1.0)


def _upload_result(
    url: str, worker: str, task_id: str, payload: bytes,
    timeout: float = 10.0,
) -> None:
    """POST a finished ``wavm3-runbatch/1`` envelope; an HTTP 400
    (rejected upload) raises."""
    _request(
        url,
        "/result",
        # The result-upload byte seam: chaos may corrupt the envelope so
        # the coordinator's validation path (reject + requeue) is
        # exercised end-to-end.
        data=chaos_bytes("result-upload", payload, tag=task_id),
        headers={
            "Content-Type": "application/octet-stream",
            "X-Wavm3-Task-Id": task_id,
            "X-Wavm3-Worker": worker,
        },
        timeout=timeout,
    )


def _upload_failure(
    url: str, worker: str, task_id: str, error: str, trace: str,
    kind: Optional[str] = None, retryable: bool = True,
    timeout: float = 10.0,
) -> None:
    try:
        _request(
            url,
            "/result",
            data=json.dumps(
                {
                    "error": error,
                    "traceback": trace,
                    "kind": kind,
                    "retryable": bool(retryable),
                }
            ).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "X-Wavm3-Task-Id": task_id,
                "X-Wavm3-Worker": worker,
            },
            timeout=timeout,
        )
    except (urllib.error.URLError, OSError):
        pass  # the lease will go stale and the coordinator requeues the task


def run_http_worker(
    url: str,
    poll_interval: float = 0.5,
    heartbeat_s: float = 5.0,
    max_tasks: Optional[int] = None,
    idle_exit_s: Optional[float] = None,
    worker_id: Optional[str] = None,
    verify_keys: bool = True,
    offline_grace_s: float = 30.0,
    run_timeout: Optional[float] = None,
    http_timeout: float = 10.0,
) -> WorkerStats:
    """Serve a campaign service until stopped: claim, execute, upload.

    The HTTP twin of :func:`repro.experiments.queue_backend.run_worker`
    (CLI: ``wavm3 campaign-worker --connect URL``).  The worker needs no
    shared filesystem and no local cache — it polls ``/claim``, executes
    each leased task through the same pure code path every backend uses,
    heartbeats the lease from a daemon thread, and uploads the result
    (or a failure record) to ``/result``.

    Parameters
    ----------
    url:
        The coordinator's base URL (``http://host:port``).
    poll_interval:
        Base sleep between ``/claim`` polls while no work is available;
        consecutive empty polls — and consecutive connection failures —
        back off exponentially (capped near ``heartbeat_s``) so an idle
        fleet or a coordinator outage does not turn into a request storm.
    heartbeat_s:
        Lease-renewal cadence; must stay well under the coordinator's
        ``stale_timeout``.
    max_tasks:
        Exit after claiming this many tasks (``None`` = unbounded).
    idle_exit_s:
        Exit after this long without claimable work (``None`` = serve
        until the coordinator says stop or goes away).
    worker_id:
        Service-unique identifier; defaults to ``<hostname>-<pid>``.
    verify_keys:
        Recompute each spec's cache key and refuse mismatching specs
        (defence against a corrupted or tampered coordinator queue).
    offline_grace_s:
        Exit (successfully) after this long of consecutive connection
        failures — the coordinator finished and went away.
    run_timeout:
        Watchdog deadline per run, in seconds: a claimed task may take
        at most ``run_timeout`` times its run count of wall clock before the
        worker abandons it with a failure upload instead of hanging the
        lease forever.  ``None`` disables the watchdog.
    http_timeout:
        Socket timeout (seconds) for every exchange with the coordinator
        (claims, heartbeats, uploads); must be positive.

    Returns
    -------
    WorkerStats
        What this worker claimed, executed and failed (``cached`` stays
        0: the cache lives with the coordinator).

    Raises
    ------
    ExperimentError
        If ``url`` does not answer like a campaign service on first
        contact (unreachable coordinators *later* trigger the
        ``offline_grace_s`` exit instead).
    """
    if http_timeout <= 0:
        raise ExperimentError(f"http_timeout must be positive, got {http_timeout}")
    wid = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    stats = WorkerStats()
    fetch_status(url, timeout=http_timeout)  # fail fast on a wrong URL
    idle_since = time.monotonic()
    offline_since: Optional[float] = None
    backoff_steps = 0
    # Empty polls and outage retries back off exponentially, capped so the
    # worker still hears a stop signal within a heartbeat-ish window.
    backoff_cap = max(poll_interval, min(poll_interval * 16.0, heartbeat_s))

    def _nap() -> None:
        nonlocal backoff_steps
        time.sleep(min(poll_interval * (2.0 ** backoff_steps), backoff_cap))
        backoff_steps = min(backoff_steps + 1, 16)  # 2**16 already clears any cap

    while True:
        if max_tasks is not None and stats.claimed >= max_tasks:
            break
        try:
            chaos_trip("claim", tag=wid)
            reply = _post_json(url, "/claim", {"worker": wid}, timeout=http_timeout)
        except ChaosError:
            _nap()  # injected claim loss: retry on the next poll
            continue
        except (urllib.error.URLError, OSError):
            now = time.monotonic()
            if offline_since is None:
                offline_since = now
            if now - offline_since >= offline_grace_s:
                break  # coordinator gone: campaign over
            _nap()
            continue
        offline_since = None
        if reply.get("stop"):
            break
        task_id = reply.get("task_id")
        if task_id is None:
            if idle_exit_s is not None and time.monotonic() - idle_since >= idle_exit_s:
                break
            _nap()
            continue
        backoff_steps = 0
        stats.claimed += 1
        _process_http_claim(
            url, wid, str(task_id), reply, heartbeat_s, verify_keys, stats,
            run_timeout=run_timeout, http_timeout=http_timeout,
        )
        # Execution time must not count as idle time.
        idle_since = time.monotonic()
    return stats


def _process_http_claim(
    url: str,
    worker_id: str,
    task_id: str,
    reply: dict,
    heartbeat_s: float,
    verify_keys: bool,
    stats: WorkerStats,
    run_timeout: Optional[float] = None,
    http_timeout: float = 10.0,
) -> None:
    try:
        task = task_spec_from_dict(reply.get("spec") or {})
        if verify_keys:
            task.verify_key()
    except PersistenceError as exc:
        _upload_failure(
            url, worker_id, task_id, str(exc), "",
            kind=type(exc).__name__, timeout=http_timeout,
        )
        stats.failed += 1
        return

    done_in_claim = 0

    def _announce(run) -> None:
        """Announce one finished run *before* the result upload: the
        coordinator drains its /progress history the moment the final
        /result resolves the campaign, and the announcement for every
        run must already be there.  Each run announces under its own
        per-run id (equal to the claim's task id for one-run tasks),
        so batching is invisible to the stream.  (A subsequently
        rejected upload leaves surplus announcements in the
        observational stream — harmless by design.)"""
        nonlocal done_in_claim, mark
        wall = max(time.perf_counter() - mark, 1e-9)
        mark = time.perf_counter()
        done_in_claim += 1
        samples = run_sample_count(run)
        event = ProgressEvent(
            task_id=task.run_id(run.run_index),
            scenario=task.scenario.label,
            run_index=run.run_index,
            worker=worker_id,
            runs_completed=stats.executed + stats.cached + done_in_claim,
            samples=samples,
            wall_s=wall,
            samples_per_s=samples / wall,
            at=time.time(),
        )
        try:
            chaos_trip("publish", tag=task.scenario.label)
            _post_json(
                url, "/progress", progress_event_to_dict(event),
                timeout=http_timeout,
            )
        except (urllib.error.URLError, OSError, ChaosError):
            pass  # progress is observational: never fail the task over it

    heartbeat = _HttpHeartbeat(url, worker_id, task_id, heartbeat_s, timeout=http_timeout)
    heartbeat.start()
    mark = time.perf_counter()
    deadline = None if run_timeout is None else run_timeout * task.run_count

    def _execute() -> bytes:
        # One runner instance serves the whole seed wave; runs are
        # announced as they finish and uploaded as one envelope.
        return dump_run_batch_bytes(task.execute(on_run=_announce))

    try:
        payload = run_with_deadline(
            _execute, deadline, label=f"task {task_id} ({task.run_count} runs)"
        )
    except Exception as exc:  # noqa: BLE001 - any failure must reach the coordinator
        _upload_failure(
            url, worker_id, task_id,
            f"{type(exc).__name__}: {exc}", traceback.format_exc(),
            kind=type(exc).__name__, timeout=http_timeout,
        )
        stats.failed += 1
        return
    finally:
        heartbeat.stop()
    try:
        _upload_result(url, worker_id, task_id, payload, timeout=http_timeout)
        stats.executed += done_in_claim
    except urllib.error.HTTPError as exc:
        # The coordinator rejected the upload (it validates schema,
        # scenario and run indices): record the failure locally; the task
        # was already requeued server-side.
        stats.failed += 1
        exc.close()
    except (urllib.error.URLError, OSError):
        stats.failed += 1  # coordinator unreachable; lease will go stale
