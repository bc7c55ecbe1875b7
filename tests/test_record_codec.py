"""Golden bytes and decoder behaviour of the campaign's JSON records.

Task specs (``wavm3-taskspec/3``), progress events (``wavm3-progress/1``)
and failure records (``wavm3-failure/1``) are read by other processes —
queue workers, ``campaign-status``, post-mortem scripts — so their bytes
are a wire format.  The goldens below pin those bytes exactly; the table
pins which payloads a reader accepts (and what it makes of them) and
which it refuses.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.design import MigrationScenario
from repro.experiments.executor import RunCache, RunTask
from repro.experiments.faults import RunFailure
from repro.experiments.results import ProgressEvent
from repro.experiments.runner import RunnerSettings
from repro.io import (
    PersistenceError,
    append_record,
    decode_record,
    encode_record,
    load_failure_records,
    load_records,
    load_task_spec,
    save_task_spec,
)
from repro.telemetry.stabilization import StabilizationRule

_SCENARIO = MigrationScenario("MEMLOAD-VM", "codec/lv/dr35", live=True, dirty_percent=35.0)

TASK = RunTask(
    seed=77,
    settings=RunnerSettings(min_runs=4),
    migration_config=None,
    stabilization=StabilizationRule(n_readings=12),
    scenario=_SCENARIO,
    run_start=3,
    run_count=2,
    key="5f" * 32,
)
TASK_GOLDEN = (
    '{\n "key": "5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f5f",\n'
    ' "migration_config": null,\n "run_count": 2,\n "run_start": 3,\n'
    ' "scenario": {\n  "dirty_percent": 35.0,\n  "experiment": "MEMLOAD-VM",\n'
    '  "family": "m",\n  "label": "codec/lv/dr35",\n  "live": true,\n'
    '  "load_on": "source",\n  "load_vm_count": 0\n },\n'
    ' "schema": "wavm3-taskspec/3",\n "seed": 77,\n'
    ' "settings": {\n  "check_interval_s": 2.5,\n  "max_post_s": 120.0,\n'
    '  "max_runs": 16,\n  "max_warmup_s": 90.0,\n  "migration_timeout_s": 900.0,\n'
    '  "min_post_s": 12.0,\n  "min_runs": 4,\n  "min_warmup_s": 12.0,\n'
    '  "telemetry": "batched",\n  "variance_delta": 0.1\n },\n'
    ' "stabilization": {\n  "n_readings": 12,\n  "rel_tolerance": 0.003\n }\n}'
)

EVENT = ProgressEvent(
    task_id="5f5f5f5f5f5f5f5f-0003", scenario="codec/lv/dr35", run_index=3,
    worker="node7-4242", runs_completed=12, samples=1846, wall_s=0.0125,
    samples_per_s=147680.0, at=1760000000.5,
)
EVENT_GOLDEN = (
    '{"at": 1760000000.5, "run_index": 3, "runs_completed": 12, "samples": 1846, '
    '"samples_per_s": 147680.0, "scenario": "codec/lv/dr35", '
    '"schema": "wavm3-progress/1", "task_id": "5f5f5f5f5f5f5f5f-0003", '
    '"wall_s": 0.0125, "worker": "node7-4242"}\n'
)

FAILURE = RunFailure(
    task_id="5f5f5f5f5f5f5f5f-0003x2", scenario="codec/lv/dr35", run_indices=(3, 4),
    attempt=2, worker="coordinator", kind="ChaosError",
    message="chaos: execute crash (dr35)", traceback_digest="0a1b2c3d4e5f",
    wall_s=0.75, at=1760000001.25, fate="quarantined",
)
TIMEOUT = RunFailure(
    task_id="5f5f5f5f5f5f5f5f-0005", scenario="codec/lv/dr35", run_indices=(5,),
    attempt=1, worker="coordinator", kind="CampaignTimeout", message="deadline",
    at=1760000002.0, fate="fatal",
)
FAILURE_GOLDEN = (
    '{"at": 1760000001.25, "attempt": 2, "fate": "quarantined", "kind": "ChaosError", '
    '"message": "chaos: execute crash (dr35)", "run_indices": [3, 4], '
    '"scenario": "codec/lv/dr35", "schema": "wavm3-failure/1", '
    '"task_id": "5f5f5f5f5f5f5f5f-0003x2", "traceback_digest": "0a1b2c3d4e5f", '
    '"wall_s": 0.75, "worker": "coordinator"}\n'
    '{"at": 1760000002.0, "attempt": 1, "fate": "fatal", "kind": "CampaignTimeout", '
    '"message": "deadline", "run_indices": [5], "scenario": "codec/lv/dr35", '
    '"schema": "wavm3-failure/1", "task_id": "5f5f5f5f5f5f5f5f-0005", '
    '"traceback_digest": null, "wall_s": null, "worker": "coordinator"}\n'
)


class TestGoldenBytes:
    def test_task_spec_file(self, tmp_path):
        path = tmp_path / "task.json"
        save_task_spec(TASK, path)
        assert path.read_text(encoding="utf-8") == TASK_GOLDEN
        assert load_task_spec(path) == TASK

    def test_progress_sidecar_line(self, tmp_path):
        path = tmp_path / "progress" / "node7-4242.ndjson"
        # Numpy integers are written as plain JSON numbers.
        append_record(replace(EVENT, samples=np.int64(1846), run_index=np.int64(3)), path)
        assert path.read_text(encoding="utf-8") == EVENT_GOLDEN
        assert load_records(ProgressEvent, path) == [EVENT]

    def test_failure_ledger_lines(self, tmp_path):
        path = tmp_path / "failures.ndjson"
        append_record(FAILURE, path)
        append_record(TIMEOUT, path)
        assert path.read_text(encoding="utf-8") == FAILURE_GOLDEN
        assert load_failure_records(path) == [FAILURE, TIMEOUT]

    def test_nested_config_is_not_coerced(self, tmp_path):
        """An ``int`` in a nested ``float`` field survives the round trip,
        so the spec still hashes to its embedded cache key."""
        settings = RunnerSettings(min_warmup_s=12, max_warmup_s=90)
        key = RunCache.scenario_key(77, _SCENARIO, settings, None, StabilizationRule())
        task = RunTask(
            seed=77, settings=settings, migration_config=None,
            stabilization=StabilizationRule(), scenario=_SCENARIO, run_start=0, key=key,
        )
        path = tmp_path / "task.json"
        save_task_spec(task, path)
        assert '"min_warmup_s": 12,' in path.read_text(encoding="utf-8")
        loaded = load_task_spec(path)
        assert type(loaded.settings.min_warmup_s) is int
        loaded.verify_key()


def _with(base, **changes):
    """A copy of ``base`` with keys set (``...`` deletes a key)."""
    payload = json.loads(json.dumps(base))
    for name, value in changes.items():
        if value is ...:
            del payload[name]
        else:
            payload[name] = value
    return payload


_TASK = json.loads(TASK_GOLDEN)
_EVENT = json.loads(EVENT_GOLDEN)
_FAILURE = json.loads(FAILURE_GOLDEN.splitlines()[0])

#: (record type, payload, the decoded record or the refusal's message).
DECODER_CASES = {
    # -- accepted ---------------------------------------------------------
    "task-golden": (RunTask, _TASK, TASK),
    "task-key-absent": (RunTask, _with(_TASK, key=...), replace(TASK, key=None)),
    "task-extra-field-ignored": (RunTask, _with(_TASK, note="x"), TASK),
    "progress-golden": (ProgressEvent, _EVENT, EVENT),
    "failure-golden": (RunFailure, _FAILURE, FAILURE),
    "failure-optionals-absent": (
        RunFailure, _with(_FAILURE, traceback_digest=..., wall_s=...),
        replace(FAILURE, traceback_digest=None, wall_s=None),
    ),
    "failure-optionals-null": (
        RunFailure, _with(_FAILURE, traceback_digest=None, wall_s=None),
        replace(FAILURE, traceback_digest=None, wall_s=None),
    ),
    # -- refused: schema ----------------------------------------------------
    "task-wrong-schema": (
        RunTask, _with(_TASK, schema="wavm3-taskspec/2"),
        r"unexpected task-spec schema 'wavm3-taskspec/2' \(want 'wavm3-taskspec/3'\)",
    ),
    "task-not-an-object": (RunTask, [_TASK], "unexpected task-spec schema"),
    "progress-wrong-schema": (
        ProgressEvent, _with(_EVENT, schema="wavm3-progress/99"),
        r"unexpected progress schema .* \(want 'wavm3-progress/1'\)",
    ),
    "progress-schema-absent": (
        ProgressEvent, _with(_EVENT, schema=...), "unexpected progress schema",
    ),
    "failure-wrong-schema": (
        RunFailure, _with(_FAILURE, schema="wavm3-failure/999"),
        r"unexpected failure schema .* \(want 'wavm3-failure/1'\)",
    ),
    # -- refused: missing fields -------------------------------------------
    "task-run-count-absent": (RunTask, _with(_TASK, run_count=...), "malformed task spec"),
    "task-settings-absent": (RunTask, _with(_TASK, settings=...), "malformed task spec"),
    "progress-at-absent": (ProgressEvent, _with(_EVENT, at=...), "malformed progress event"),
    "progress-fields-absent": (
        ProgressEvent, {"schema": "wavm3-progress/1"}, "malformed progress event",
    ),
    "failure-at-absent": (RunFailure, _with(_FAILURE, at=...), "malformed failure record"),
    "failure-fate-absent": (RunFailure, _with(_FAILURE, fate=...), "malformed failure record"),
    # -- refused: wrong types and values -----------------------------------
    "task-seed-text": (RunTask, _with(_TASK, seed="seven"), "malformed task spec"),
    "task-settings-list": (RunTask, _with(_TASK, settings=[1, 2]), "malformed task spec"),
    "task-unknown-setting": (
        RunTask, _with(_TASK, settings={**_TASK["settings"], "compute": "numpy"}),
        "malformed task spec",
    ),
    "task-invalid-scenario": (
        RunTask, _with(_TASK, scenario={**_TASK["scenario"], "family": "z"}),
        "malformed task spec",
    ),
    "task-invalid-range": (RunTask, _with(_TASK, run_count=0), "invalid batch range"),
    "progress-run-index-text": (
        ProgressEvent, _with(_EVENT, run_index="three"), "malformed progress event",
    ),
    "failure-run-indices-scalar": (
        RunFailure, _with(_FAILURE, run_indices=5), "malformed failure record",
    ),
    "failure-unknown-fate": (
        RunFailure, _with(_FAILURE, fate="vanished"), "malformed failure record",
    ),
    "progress-numeric-strings": (
        ProgressEvent, _with(_EVENT, run_index="3", wall_s="0.0125"),
        "malformed progress event: 'run_index': expected an integer",
    ),
    "progress-wall-s-bool": (
        ProgressEvent, _with(_EVENT, wall_s=True),
        "malformed progress event: 'wall_s': expected a number",
    ),
    "failure-worker-number": (
        RunFailure, _with(_FAILURE, worker=7),
        "malformed failure record: 'worker': expected a string",
    ),
    "failure-run-indices-string": (
        RunFailure, _with(_FAILURE, run_indices="34"),
        "malformed failure record: 'run_indices': expected a list of integers",
    ),
    "failure-attempt-bool": (
        RunFailure, _with(_FAILURE, attempt=True),
        "malformed failure record: 'attempt': expected an integer",
    ),
    "failure-attempt-float": (
        RunFailure, _with(_FAILURE, attempt=3.7),
        "malformed failure record: 'attempt': expected an integer",
    ),
    # -- refused: null where it is not allowed ------------------------------
    "task-seed-null": (RunTask, _with(_TASK, seed=None), "malformed task spec"),
    "task-settings-null": (RunTask, _with(_TASK, settings=None), "malformed task spec"),
    "progress-samples-null": (
        ProgressEvent, _with(_EVENT, samples=None), "malformed progress event",
    ),
    "progress-at-null": (ProgressEvent, _with(_EVENT, at=None), "malformed progress event"),
    "failure-attempt-null": (RunFailure, _with(_FAILURE, attempt=None), "malformed failure record"),
    "failure-run-indices-null": (
        RunFailure, _with(_FAILURE, run_indices=None), "malformed failure record",
    ),
}


@pytest.mark.parametrize("case", sorted(DECODER_CASES))
def test_decoder_table(case):
    cls, payload, expected = DECODER_CASES[case]
    if isinstance(expected, str):
        with pytest.raises(PersistenceError, match=expected):
            decode_record(cls, payload)
    else:
        assert decode_record(cls, payload) == expected


def test_encoder_is_the_decoders_inverse():
    for record in (TASK, EVENT, FAILURE, TIMEOUT):
        assert decode_record(type(record), encode_record(record)) == record
