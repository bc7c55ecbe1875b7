"""Persistence of samples, run results and the campaign's records.

Research workflows need measurements to outlive the process that took
them: campaigns are expensive, model fitting is iterated, and the paper's
tables should be regenerable without re-simulating.  This module provides
plain-format round-trips:

* **migration samples** → JSON (all per-reading arrays plus scalars and
  measured energies; the complete model-fitting input);
* **run results** → a schema-enveloped pickle (the run cache's entries);
* **records** → JSON through one dataclass-driven codec
  (:func:`encode_record`/:func:`decode_record`): run task specs (the
  distributed queue's spool files), progress events and failure records
  (one NDJSON line each, :func:`append_record`/:func:`load_records`).

Formats are versioned with a ``schema`` field so future layouts can be
migrated explicitly rather than silently misread.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pathlib
import pickle
import threading
import typing
from typing import Iterable, Union

import numpy as np

from repro.errors import ReproError
from repro.models.features import HostRole, MigrationSample

__all__ = [
    "save_samples_json",
    "load_samples_json",
    "write_atomic",
    "save_run_result",
    "load_run_result",
    "dump_run_result_bytes",
    "load_run_result_bytes",
    "encode_record",
    "decode_record",
    "append_record",
    "load_records",
    "save_task_spec",
    "load_task_spec",
    "load_failure_records",
]

_PathLike = Union[str, pathlib.Path]

#: Schema tag written into every JSON artifact.
SAMPLES_SCHEMA = "wavm3-samples/1"
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
    except (KeyError, TypeError, ValueError) as exc:
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
    except ValueError as exc:  # invalid JSON or UTF-8
        raise PersistenceError(f"{path}: not valid JSON: {exc}") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else type(payload)
    if schema != SAMPLES_SCHEMA:
        raise PersistenceError(
            f"{path}: unexpected schema {schema!r} (want {SAMPLES_SCHEMA!r})"
        )
    if not isinstance(payload.get("samples"), list):
        raise PersistenceError(f"{path}: no samples list")
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
# Records <-> JSON / NDJSON: task specs, progress events, failure records
# ---------------------------------------------------------------------------
#: Schema tag and error-message names of each record type, by class name:
#: :class:`~repro.experiments.executor.RunTask` (the queue's spool files),
#: :class:`~repro.experiments.results.ProgressEvent` (per-worker NDJSON
#: sidecars) and :class:`~repro.experiments.faults.RunFailure` (the
#: campaign's ``failures.ndjson`` ledger).  The ``failures`` entries of
#: ``spool_status()`` have another shape, read from the spool's
#: ``wavm3-taskfailure/1`` records.
_RECORDS = {
    "RunTask": (TASK_SPEC_SCHEMA, "task-spec", "task spec"),
    "ProgressEvent": (PROGRESS_SCHEMA, "progress", "progress event"),
    "RunFailure": (FAILURE_SCHEMA, "failure", "failure record"),
}


def _decode_int(value) -> int:
    if type(value) is not int:  # bool is an int subclass: refused too
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _decode_float(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _decode_str(value) -> str:
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _decode_int_list(value) -> tuple:
    if type(value) is not list:
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(map(_decode_int, value))


#: The decoder of each scalar field type: the JSON type it is written as,
#: and nothing that would merely convert to it.
_STRICT = {int: _decode_int, float: _decode_float, str: _decode_str}


@functools.lru_cache(maxsize=None)
def _codec(cls) -> tuple:
    """``(name, encode, decode, nullable, required)`` per field of ``cls``.

    Built once per class from its resolved annotations.  An ``int`` field
    takes only an integer (not a ``bool``), a ``float`` field an integer
    or a float, a ``str`` field only a string; ``Tuple[int, ...]`` becomes
    a list of integers and back, and ``Optional[X]`` also takes ``None``.  A nested dataclass is
    written by :func:`dataclasses.asdict` and rebuilt with plain
    ``cls(**fields)``, uncoerced: a worker re-hashes its fields into the
    spec's cache key (:meth:`RunTask.verify_key`), so an ``int`` in a
    ``float`` field must stay an ``int``.  Only a field whose default is
    ``None`` may be absent.
    """
    hints = typing.get_type_hints(cls)
    fields = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        args = typing.get_args(hint)
        nullable = type(None) in args
        if nullable:
            (hint,) = [arg for arg in args if arg is not type(None)]
        if dataclasses.is_dataclass(hint):
            encode, decode = dataclasses.asdict, lambda doc, kind=hint: kind(**doc)
        elif typing.get_origin(hint) is tuple:  # Tuple[int, ...]
            encode, decode = (lambda v: [int(i) for i in v]), _decode_int_list
        else:
            encode, decode = hint, _STRICT[hint]
        fields.append((field.name, encode, decode, nullable, field.default is not None))
    return tuple(fields)


def encode_record(record) -> dict:
    """A record as its JSON-ready, schema-tagged document.

    Parameters
    ----------
    record:
        A :class:`~repro.experiments.executor.RunTask`,
        :class:`~repro.experiments.results.ProgressEvent` or
        :class:`~repro.experiments.faults.RunFailure`.

    Returns
    -------
    dict
        Its fields plus ``schema``.
    """
    cls = type(record)
    payload = {"schema": _RECORDS[cls.__name__][0]}
    for name, encode, _, _, _ in _codec(cls):
        value = getattr(record, name)
        payload[name] = None if value is None else encode(value)
    return payload


def decode_record(cls, payload):
    """Rebuild a record of type ``cls`` from :func:`encode_record` output.

    Raises
    ------
    PersistenceError
        On a wrong schema tag (including a retired schema of the same
        record) or any missing, mistyped or invalid field — a worker
        should fail such a task explicitly rather than guess.
    """
    schema, label, what = _RECORDS[cls.__name__]
    found = payload.get("schema") if isinstance(payload, dict) else type(payload)
    if found != schema:
        raise PersistenceError(
            f"unexpected {label} schema {found!r} (want {schema!r})"
        )
    try:
        kwargs = {}
        for name, _, decode, nullable, required in _codec(cls):
            if name not in payload and not required:
                continue
            value = payload[name]
            if value is None and not nullable:
                raise TypeError(f"{name!r} must not be null")
            try:
                kwargs[name] = None if value is None else decode(value)
            except TypeError as exc:
                raise TypeError(f"{name!r}: {exc}") from None
        return cls(**kwargs)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        # ReproError covers the record's own validation (an unknown
        # fate, an invalid run range or scenario).
        raise PersistenceError(f"malformed {what}: {exc}") from exc


def append_record(record, path: _PathLike) -> None:
    """Append one record to an NDJSON file as one ``\\n``-terminated line.

    Each queue worker appends to its *own* progress sidecar
    (``<spool>/progress/<worker>.ndjson``) and the coordinator alone to
    its failure ledger, so lines never interleave across processes; one
    ``write`` per line keeps concurrent readers from seeing torn records
    in practice.  The parent directory is created on demand.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(encode_record(record), sort_keys=True) + "\n"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line)


def load_records(cls, path: _PathLike) -> list:
    """Every decodable ``cls`` record of an NDJSON file, in file order.

    Tolerant by design: the file may be mid-append by a live writer, so
    a torn or malformed line — even one cut inside a multi-byte UTF-8
    sequence — is skipped rather than fatal, and a missing file reads as
    no records.  Lines are decoded one by one from raw bytes, so a torn
    tail never takes the whole file down.
    """
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError:
        return []
    records = []
    for line in data.split(b"\n"):
        try:
            records.append(decode_record(cls, json.loads(line)))
        except (ValueError, PersistenceError):
            continue  # blank, torn or corrupt line: skip, keep the stream usable
    return records


def save_task_spec(task, path: _PathLike) -> None:
    """Write one :class:`~repro.experiments.executor.RunTask` spec atomically.

    Atomicity matters: spool directories are scanned by concurrent
    workers, and a claim must never observe a half-written spec.
    """
    document = json.dumps(encode_record(task), sort_keys=True, indent=1)
    write_atomic(path, document.encode("utf-8"))


def load_task_spec(path: _PathLike):
    """Read a task spec written by :func:`save_task_spec`.

    Raises
    ------
    PersistenceError
        On malformed, truncated or wrong-schema files.
    """
    from repro.experiments.executor import RunTask  # local: avoid import cycle

    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:  # invalid JSON or UTF-8, or unreadable
        raise PersistenceError(f"{path}: not a readable task spec: {exc}") from exc
    try:
        return decode_record(RunTask, payload)
    except PersistenceError as exc:
        raise PersistenceError(f"{path}: {exc}") from exc


def load_failure_records(path: _PathLike) -> list:
    """The :class:`~repro.experiments.faults.RunFailure` records of a
    failure ledger (``failures.ndjson``), for post-mortems."""
    from repro.experiments.faults import RunFailure  # local: avoid import cycle

    return load_records(RunFailure, path)
