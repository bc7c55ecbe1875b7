"""Persistence of traces, samples and campaign artifacts.

Research workflows need measurements to outlive the process that took
them: campaigns are expensive, model fitting is iterated, and the paper's
tables should be regenerable without re-simulating.  This module provides
plain-format round-trips:

* **power traces** → CSV (``time_s,power_w`` — loadable by any plotting
  tool, and by this module);
* **migration samples** → JSON (all per-reading arrays plus scalars and
  measured energies; the complete model-fitting input);
* **error reports / comparison grids** → JSON for EXPERIMENTS.md-style
  post-processing;
* **run task specs** → JSON (the distributed queue backend's wire format:
  one file per run, claimed and executed by ``campaign-worker`` processes).

Formats are versioned with a ``schema`` field so future layouts can be
migrated explicitly rather than silently misread.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import pathlib
import pickle
import threading
from typing import Iterable, Union

import numpy as np

from repro.errors import ExperimentError, ReproError
from repro.models.features import HostRole, MigrationSample
from repro.regression.metrics import ErrorReport
from repro.telemetry.traces import PowerTrace

__all__ = [
    "save_power_trace_csv",
    "load_power_trace_csv",
    "save_samples_json",
    "load_samples_json",
    "save_error_grid_json",
    "load_error_grid_json",
    "write_atomic",
    "save_run_result",
    "load_run_result",
    "dump_run_result_bytes",
    "load_run_result_bytes",
    "save_task_spec",
    "load_task_spec",
    "task_spec_to_dict",
    "task_spec_from_dict",
    "progress_event_to_dict",
    "progress_event_from_dict",
    "append_progress_event",
    "load_progress_events",
    "run_failure_to_dict",
    "run_failure_from_dict",
    "append_failure_record",
    "load_failure_records",
]

_PathLike = Union[str, pathlib.Path]

#: Schema tag written into every JSON artifact.
SAMPLES_SCHEMA = "wavm3-samples/1"
ERRORS_SCHEMA = "wavm3-errors/1"
# /2: traces moved from list-backed to numpy-block storage (their pickle
# state changed shape); old /1 cache entries are rejected and recomputed.
RUN_RESULT_SCHEMA = "wavm3-runresult/2"
# /2: a task covers a contiguous (run_start, run_count) range instead of
# one run_index; specs of the older single-run schema are rejected.
# /3: the scenario payload lost the ``driver`` field (no scenario is
# manager-driven any more); /2 specs carrying it are rejected.
TASK_SPEC_SCHEMA = "wavm3-taskspec/3"
PROGRESS_SCHEMA = "wavm3-progress/1"
FAILURE_SCHEMA = "wavm3-failure/1"


class PersistenceError(ReproError):
    """A file could not be read back as the expected artifact."""


# ---------------------------------------------------------------------------
# Power traces <-> CSV
# ---------------------------------------------------------------------------
def save_power_trace_csv(trace: PowerTrace, path: _PathLike) -> None:
    """Write a power trace as two-column CSV with a header row."""
    path = pathlib.Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "power_w"])
        for t, w in zip(trace.times, trace.watts):
            writer.writerow([f"{t:.6f}", f"{w:.6f}"])


def load_power_trace_csv(path: _PathLike, label: str = "") -> PowerTrace:
    """Read a power trace written by :func:`save_power_trace_csv`."""
    path = pathlib.Path(path)
    trace = PowerTrace(label=label or path.stem)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["time_s", "power_w"]:
            raise PersistenceError(f"{path}: not a power-trace CSV (header {header!r})")
        for row in reader:
            if len(row) != 2:
                raise PersistenceError(f"{path}: malformed row {row!r}")
            trace.append(float(row[0]), float(row[1]))
    return trace


# ---------------------------------------------------------------------------
# Migration samples <-> JSON
# ---------------------------------------------------------------------------
_ARRAY_FIELDS = (
    "times", "power_w", "phase", "cpu_host_pct", "cpu_vm_pct", "bw_bps", "dr_pct",
)
_SCALAR_FIELDS = (
    "scenario", "experiment", "live", "family", "run_index",
    "data_bytes", "mem_mb", "mean_bw_bps",
    "energy_initiation_j", "energy_transfer_j", "energy_activation_j",
    "downtime_s",
)


def _sample_to_dict(sample: MigrationSample) -> dict:
    record: dict = {"role": sample.role.value, "notes": dict(sample.notes)}
    for name in _SCALAR_FIELDS:
        record[name] = getattr(sample, name)
    for name in _ARRAY_FIELDS:
        record[name] = np.asarray(getattr(sample, name)).tolist()
    return record


def _sample_from_dict(record: dict) -> MigrationSample:
    try:
        kwargs = {name: record[name] for name in _SCALAR_FIELDS}
        kwargs.update(
            {name: np.asarray(record[name], dtype=np.float64) for name in _ARRAY_FIELDS}
        )
        kwargs["phase"] = np.asarray(record["phase"], dtype=np.int64)
        kwargs["role"] = HostRole(record["role"])
        kwargs["notes"] = dict(record.get("notes", {}))
    except (KeyError, ValueError) as exc:
        raise PersistenceError(f"malformed sample record: {exc}") from exc
    return MigrationSample(**kwargs)


def save_samples_json(samples: Iterable[MigrationSample], path: _PathLike) -> int:
    """Write migration samples (the complete model-fitting input) as JSON.

    Streams: one sample's record is in memory at a time, so a lazy
    source such as
    :meth:`~repro.experiments.results.ExperimentResult.iter_samples`
    never materialises the campaign.  The bytes are exactly those of
    ``json.dumps({"schema": SAMPLES_SCHEMA, "samples": [...]})`` with
    the default separators (``", "`` between items, ``": "`` after
    keys).

    Returns
    -------
    int
        How many samples were written.
    """
    count = 0
    with pathlib.Path(path).open("w", encoding="utf-8") as handle:
        handle.write('{"schema": ' + json.dumps(SAMPLES_SCHEMA) + ', "samples": [')
        for sample in samples:
            if count:
                handle.write(", ")
            handle.write(json.dumps(_sample_to_dict(sample)))
            count += 1
        handle.write("]}")
    return count


def load_samples_json(path: _PathLike) -> list[MigrationSample]:
    """Read samples written by :func:`save_samples_json`."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"{path}: not valid JSON: {exc}") from exc
    if payload.get("schema") != SAMPLES_SCHEMA:
        raise PersistenceError(
            f"{path}: unexpected schema {payload.get('schema')!r} "
            f"(want {SAMPLES_SCHEMA!r})"
        )
    return [_sample_from_dict(record) for record in payload["samples"]]


# ---------------------------------------------------------------------------
# Run results <-> pickle (the campaign executor's cache payload)
# ---------------------------------------------------------------------------
def dump_run_result_bytes(run) -> bytes:
    """Serialise one :class:`~repro.experiments.results.RunResult` losslessly.

    Pickle is used (rather than JSON) because a run result is an internal
    artifact read back by the same codebase, and the campaign executor's
    bit-identity guarantee requires an exact round-trip of every trace
    sample, timeline instant and round record.  The payload is wrapped in
    a :data:`RUN_RESULT_SCHEMA` envelope.  These bytes are the run-cache
    file format (:func:`save_run_result`).

    Parameters
    ----------
    run:
        The :class:`~repro.experiments.results.RunResult` to serialise.

    Returns
    -------
    bytes
        The schema-enveloped pickle of the run.
    """
    return pickle.dumps(
        {"schema": RUN_RESULT_SCHEMA, "run": run},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_run_result_bytes(data: bytes, origin: str = "run result"):
    """Rebuild a run result from :func:`dump_run_result_bytes` output.

    .. warning::
        Unpickling executes code embedded in the payload, so only bytes
        from a trusted source (this codebase's own cache files) may be
        passed here.

    Parameters
    ----------
    data:
        The serialised run result.
    origin:
        Human-readable provenance used in error messages (a file path,
        a worker id, …).

    Returns
    -------
    RunResult
        The deserialised run.

    Raises
    ------
    PersistenceError
        If the bytes are not a valid schema-enveloped
        :class:`~repro.experiments.results.RunResult` pickle.
    """
    from repro.experiments.results import RunResult  # local: avoid import cycle

    try:
        payload = pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 - unpickling arbitrary bytes
        raise PersistenceError(f"{origin}: not a readable run result: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != RUN_RESULT_SCHEMA:
        raise PersistenceError(
            f"{origin}: unexpected schema "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r} "
            f"(want {RUN_RESULT_SCHEMA!r})"
        )
    run = payload.get("run")
    if not isinstance(run, RunResult):
        raise PersistenceError(f"{origin}: payload is not a RunResult ({type(run)!r})")
    return run


def write_atomic(path: _PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary name and a rename.

    Concurrent readers (spool scans, cache lookups) see either the old
    file or the whole new one, never a partial write.  The temporary name
    carries the process and thread id, because worker threads and the
    coordinator may write the same file at once.

    Parameters
    ----------
    path:
        Destination file.
    data:
        The complete file contents.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def save_run_result(run, path: _PathLike) -> None:
    """Persist one :class:`~repro.experiments.results.RunResult` to disk.

    The payload is :func:`dump_run_result_bytes` and the file is written
    via a temporary name + atomic rename so concurrent readers never
    observe a partial file.

    Parameters
    ----------
    run:
        The run to persist.
    path:
        Destination file (conventionally ``run-NNNN.pkl`` inside a
        :class:`~repro.experiments.executor.RunCache` entry).
    """
    from repro.experiments.chaos import chaos_bytes  # local: avoid cycle

    # The "cache-put" chaos seam: an active schedule may crash, delay or
    # corrupt the payload here (corruption is caught on read — a corrupt
    # entry loads as a cache miss and the run is recomputed).
    write_atomic(path, chaos_bytes("cache-put", dump_run_result_bytes(run)))


def load_run_result(path: _PathLike):
    """Read a run result written by :func:`save_run_result`.

    Parameters
    ----------
    path:
        The file to read.

    Returns
    -------
    RunResult
        The deserialised run.

    Raises
    ------
    PersistenceError
        On any malformed, truncated or wrong-schema file — callers
        treating the file as a cache entry should catch it and fall back
        to re-executing the run.
    """
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise PersistenceError(f"{path}: not a readable run result: {exc}") from exc
    return load_run_result_bytes(data, origin=str(path))


# ---------------------------------------------------------------------------
# Run task specs <-> JSON (the distributed queue's wire format)
# ---------------------------------------------------------------------------
def task_spec_to_dict(task) -> dict:
    """Serialise a :class:`~repro.experiments.executor.RunTask` to plain JSON.

    Every constituent is a flat dataclass of scalars, so the canonical
    JSON of a task is also exactly the cache-key payload the executor
    hashes — a worker can therefore verify the embedded ``key`` before
    trusting a spec.  This dict is the queue backend's wire format: it is
    what the spool files hold.

    Parameters
    ----------
    task:
        The :class:`~repro.experiments.executor.RunTask` to serialise.

    Returns
    -------
    dict
        A JSON-ready :data:`TASK_SPEC_SCHEMA` document.
    """
    return {
        "schema": TASK_SPEC_SCHEMA,
        "key": task.key,
        "seed": int(task.seed),
        "scenario": dataclasses.asdict(task.scenario),
        "settings": dataclasses.asdict(task.settings),
        "migration_config": (
            dataclasses.asdict(task.migration_config)
            if task.migration_config is not None
            else None
        ),
        "stabilization": dataclasses.asdict(task.stabilization),
        "run_start": int(task.run_start),
        "run_count": int(task.run_count),
    }


def task_spec_from_dict(payload: dict):
    """Rebuild a :class:`~repro.experiments.executor.RunTask` from JSON data.

    Parameters
    ----------
    payload:
        A :data:`TASK_SPEC_SCHEMA` document (:func:`task_spec_to_dict`
        output).

    Returns
    -------
    RunTask
        The reconstructed task.

    Raises
    ------
    PersistenceError
        On a wrong schema tag (including the retired single-run schema
        of the previous version) or any missing/mistyped field — a worker
        should fail such a task explicitly rather than guess.
    """
    from repro.experiments.design import MigrationScenario  # local: avoid cycle
    from repro.experiments.executor import RunTask
    from repro.experiments.runner import RunnerSettings
    from repro.hypervisor.migration import MigrationConfig
    from repro.telemetry.stabilization import StabilizationRule

    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != TASK_SPEC_SCHEMA:
        raise PersistenceError(
            f"unexpected task-spec schema "
            f"{schema if isinstance(payload, dict) else type(payload)!r} "
            f"(want {TASK_SPEC_SCHEMA!r})"
        )
    try:
        return RunTask(
            seed=int(payload["seed"]),
            settings=RunnerSettings(**payload["settings"]),
            migration_config=(
                MigrationConfig(**payload["migration_config"])
                if payload["migration_config"] is not None
                else None
            ),
            stabilization=StabilizationRule(**payload["stabilization"]),
            scenario=MigrationScenario(**payload["scenario"]),
            run_start=int(payload["run_start"]),
            run_count=int(payload["run_count"]),
            key=payload.get("key"),
        )
    except (KeyError, TypeError, ValueError, ExperimentError) as exc:
        raise PersistenceError(f"malformed task spec: {exc}") from exc


def save_task_spec(task, path: _PathLike) -> None:
    """Write one task spec atomically (temp file + rename).

    Atomicity matters: spool directories are scanned by concurrent
    workers, and a claim must never observe a half-written spec.

    Parameters
    ----------
    task:
        The :class:`~repro.experiments.executor.RunTask` to spool.
    path:
        Destination file (conventionally ``<task-id>.json`` in a spool's
        ``tasks/`` directory).
    """
    write_atomic(
        path,
        json.dumps(task_spec_to_dict(task), sort_keys=True, indent=1).encode("utf-8"),
    )


def load_task_spec(path: _PathLike):
    """Read a task spec written by :func:`save_task_spec`.

    Parameters
    ----------
    path:
        The spec file to read.

    Returns
    -------
    RunTask
        The reconstructed task.

    Raises
    ------
    PersistenceError
        On malformed, truncated or wrong-schema files — a worker should
        fail such a task explicitly rather than guess.
    """
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as exc:
        raise PersistenceError(f"{path}: not a readable task spec: {exc}") from exc
    try:
        return task_spec_from_dict(payload)
    except PersistenceError as exc:
        raise PersistenceError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Progress events <-> JSON / NDJSON (the live campaign-progress stream)
# ---------------------------------------------------------------------------
_PROGRESS_INT_FIELDS = ("run_index", "runs_completed", "samples")
_PROGRESS_FLOAT_FIELDS = ("wall_s", "samples_per_s", "at")
_PROGRESS_STR_FIELDS = ("task_id", "scenario", "worker")


def progress_event_to_dict(event) -> dict:
    """Serialise a :class:`~repro.experiments.results.ProgressEvent`.

    This dict is the progress wire format of the queue backend: one
    NDJSON line in a worker's spool sidecar.

    Parameters
    ----------
    event:
        The :class:`~repro.experiments.results.ProgressEvent` to serialise.

    Returns
    -------
    dict
        A JSON-ready ``wavm3-progress/1`` document.
    """
    record: dict = {"schema": PROGRESS_SCHEMA}
    for name in _PROGRESS_STR_FIELDS:
        record[name] = str(getattr(event, name))
    for name in _PROGRESS_INT_FIELDS:
        record[name] = int(getattr(event, name))
    for name in _PROGRESS_FLOAT_FIELDS:
        record[name] = float(getattr(event, name))
    return record


def progress_event_from_dict(payload: dict):
    """Rebuild a :class:`~repro.experiments.results.ProgressEvent`.

    Parameters
    ----------
    payload:
        A ``wavm3-progress/1`` document (:func:`progress_event_to_dict`
        output).

    Returns
    -------
    ProgressEvent
        The reconstructed event.

    Raises
    ------
    PersistenceError
        On a wrong schema tag or any missing/mistyped field.
    """
    from repro.experiments.results import ProgressEvent  # local: avoid cycle

    if not isinstance(payload, dict) or payload.get("schema") != PROGRESS_SCHEMA:
        raise PersistenceError(
            f"unexpected progress schema "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r} "
            f"(want {PROGRESS_SCHEMA!r})"
        )
    try:
        kwargs: dict = {name: str(payload[name]) for name in _PROGRESS_STR_FIELDS}
        kwargs.update({name: int(payload[name]) for name in _PROGRESS_INT_FIELDS})
        kwargs.update({name: float(payload[name]) for name in _PROGRESS_FLOAT_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed progress event: {exc}") from exc
    return ProgressEvent(**kwargs)


def append_progress_event(event, path: _PathLike) -> None:
    """Append one progress event to an NDJSON sidecar file.

    Each queue worker appends to its *own* per-worker sidecar
    (``<spool>/progress/<worker>.ndjson``), so lines never interleave
    across processes; a single ``write`` of one ``\\n``-terminated line
    keeps concurrent readers from seeing torn records in practice.

    Parameters
    ----------
    event:
        The :class:`~repro.experiments.results.ProgressEvent` to record.
    path:
        The sidecar file (created, along with its parent, if missing).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(progress_event_to_dict(event), sort_keys=True) + "\n"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line)


def _ndjson_lines(path: pathlib.Path) -> list[str]:
    """Best-effort decoded lines of an NDJSON file that may be mid-append.

    Decodes per line from raw bytes rather than ``read_text``-ing the
    whole file: a reader racing a live appender can observe a final line
    torn in the middle of a multi-byte UTF-8 sequence, which a
    whole-file decode turns into a ``UnicodeDecodeError`` that takes the
    status view down.  Undecodable lines are dropped exactly like
    malformed JSON ones — the appender's next flush completes them.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return []
    lines = []
    for raw in data.split(b"\n"):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            continue  # torn multi-byte tail of an in-flight append
    return lines


def load_progress_events(path: _PathLike) -> list:
    """Read every valid progress event from an NDJSON sidecar.

    Tolerant by design: the file may be mid-append by a live worker, so a
    torn or malformed trailing line — even one cut inside a multi-byte
    UTF-8 sequence — is skipped rather than fatal (the status views
    re-read the file on their next refresh).

    Parameters
    ----------
    path:
        The sidecar file; a missing file reads as no events.

    Returns
    -------
    list[ProgressEvent]
        The decodable events, in file (chronological) order.
    """
    events = []
    for line in _ndjson_lines(pathlib.Path(path)):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(progress_event_from_dict(json.loads(line)))
        except (json.JSONDecodeError, PersistenceError):
            continue  # torn or corrupt line: skip, keep the stream usable
    return events


# ---------------------------------------------------------------------------
# Failure records <-> JSON / NDJSON (the campaign failure ledger)
# ---------------------------------------------------------------------------
def run_failure_to_dict(failure) -> dict:
    """Serialise a :class:`~repro.experiments.faults.RunFailure`.

    This dict is the ``wavm3-failure/1`` wire format: one NDJSON line in
    the campaign's failure ledger (``failures.ndjson`` next to the run
    cache).  The ``failures`` entries of ``spool_status()`` have another
    shape, ``{task_id, worker, error, kind}``, read from the spool's
    ``wavm3-taskfailure/1`` records.

    Parameters
    ----------
    failure:
        The :class:`~repro.experiments.faults.RunFailure` to serialise.

    Returns
    -------
    dict
        A JSON-ready ``wavm3-failure/1`` document.
    """
    return {
        "schema": FAILURE_SCHEMA,
        "task_id": str(failure.task_id),
        "scenario": str(failure.scenario),
        "run_indices": [int(i) for i in failure.run_indices],
        "attempt": int(failure.attempt),
        "worker": str(failure.worker),
        "kind": str(failure.kind),
        "message": str(failure.message),
        "traceback_digest": (
            str(failure.traceback_digest)
            if failure.traceback_digest is not None
            else None
        ),
        "wall_s": float(failure.wall_s) if failure.wall_s is not None else None,
        "at": float(failure.at),
        "fate": str(failure.fate),
    }


def run_failure_from_dict(payload: dict):
    """Rebuild a :class:`~repro.experiments.faults.RunFailure`.

    Parameters
    ----------
    payload:
        A ``wavm3-failure/1`` document (:func:`run_failure_to_dict`
        output).

    Returns
    -------
    RunFailure
        The reconstructed record.

    Raises
    ------
    PersistenceError
        On a wrong schema tag or any missing/mistyped field.
    """
    from repro.experiments.faults import RunFailure  # local: avoid cycle

    if not isinstance(payload, dict) or payload.get("schema") != FAILURE_SCHEMA:
        raise PersistenceError(
            f"unexpected failure schema "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r} "
            f"(want {FAILURE_SCHEMA!r})"
        )
    try:
        digest = payload.get("traceback_digest")
        wall = payload.get("wall_s")
        return RunFailure(
            task_id=str(payload["task_id"]),
            scenario=str(payload["scenario"]),
            run_indices=tuple(int(i) for i in payload["run_indices"]),
            attempt=int(payload["attempt"]),
            worker=str(payload["worker"]),
            kind=str(payload["kind"]),
            message=str(payload["message"]),
            traceback_digest=str(digest) if digest is not None else None,
            wall_s=float(wall) if wall is not None else None,
            at=float(payload["at"]),
            fate=str(payload["fate"]),
        )
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        # ReproError covers RunFailure's own validation (unknown fate).
        raise PersistenceError(f"malformed failure record: {exc}") from exc


def append_failure_record(failure, path: _PathLike) -> None:
    """Append one failure record to an NDJSON ledger file.

    Mirrors :func:`append_progress_event`: one ``\\n``-terminated line
    per record, parent directory created on demand, so the ledger
    survives a crashed coordinator and is tail-able while a campaign
    runs.

    Parameters
    ----------
    failure:
        The :class:`~repro.experiments.faults.RunFailure` to record.
    path:
        The ledger file (conventionally ``failures.ndjson`` next to the
        run cache).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(run_failure_to_dict(failure), sort_keys=True) + "\n"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line)


def load_failure_records(path: _PathLike) -> list:
    """Read every valid failure record from an NDJSON ledger.

    Tolerant like :func:`load_progress_events`: torn or malformed lines
    are skipped, a missing file reads as an empty ledger.

    Parameters
    ----------
    path:
        The ledger file.

    Returns
    -------
    list[RunFailure]
        The decodable records, in file (chronological) order.
    """
    records = []
    for line in _ndjson_lines(pathlib.Path(path)):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(run_failure_from_dict(json.loads(line)))
        except (json.JSONDecodeError, PersistenceError):
            continue  # torn or corrupt line: skip, keep the ledger usable
    return records


# ---------------------------------------------------------------------------
# Error grids <-> JSON
# ---------------------------------------------------------------------------
def save_error_grid_json(
    errors: dict[str, dict[str, dict[str, ErrorReport]]], path: _PathLike
) -> None:
    """Write a Table-VII-style error grid (model → kind → role)."""
    payload = {
        "schema": ERRORS_SCHEMA,
        "grid": {
            model: {
                kind: {
                    role: {
                        "n": report.n,
                        "mae_j": report.mae_j,
                        "rmse_j": report.rmse_j,
                        "nrmse": report.nrmse,
                    }
                    for role, report in roles.items()
                }
                for kind, roles in kinds.items()
            }
            for model, kinds in errors.items()
        },
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_error_grid_json(path: _PathLike) -> dict[str, dict[str, dict[str, ErrorReport]]]:
    """Read an error grid written by :func:`save_error_grid_json`."""
    path = pathlib.Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != ERRORS_SCHEMA:
        raise PersistenceError(
            f"{path}: unexpected schema {payload.get('schema')!r} "
            f"(want {ERRORS_SCHEMA!r})"
        )
    grid: dict[str, dict[str, dict[str, ErrorReport]]] = {}
    for model, kinds in payload["grid"].items():
        grid[model] = {}
        for kind, roles in kinds.items():
            grid[model][kind] = {}
            for role, cells in roles.items():
                grid[model][kind][role] = ErrorReport(
                    n=int(cells["n"]),
                    mae_j=float(cells["mae_j"]),
                    rmse_j=float(cells["rmse_j"]),
                    nrmse=float(cells["nrmse"]),
                )
    return grid
