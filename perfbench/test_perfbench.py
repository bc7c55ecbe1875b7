"""Tests of the benchmark's own logic: span arithmetic, digest checks, smoke runs.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402


def span_set(rows, counters=None, runs=()):
    """A SpanSet from ``(id, parent, name, start, end[, run])`` rows."""
    names = sorted({row[2] for row in rows})
    run_table = list(runs)
    return spans.SpanSet(
        ids=np.array([r[0] for r in rows], dtype=np.int64),
        parents=np.array([r[1] for r in rows], dtype=np.int64),
        names=np.array([names.index(r[2]) for r in rows], dtype=np.int32),
        runs=np.array([r[5] if len(r) > 5 else -1 for r in rows], dtype=np.int32),
        starts=np.array([r[3] for r in rows], dtype=np.float64),
        ends=np.array([r[4] for r in rows], dtype=np.float64),
        name_table=names,
        run_table=run_table,
        counters=counters or {},
    )


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------
def test_covered_length_merges_overlaps_and_clips_to_parent():
    assert spans.covered_length([(1, 3), (2, 5)], 0, 10) == 4
    assert spans.covered_length([(1, 2), (3, 4)], 0, 10) == 2
    assert spans.covered_length([(8, 12)], 0, 10) == 2
    assert spans.covered_length([(-3, -1), (4, 4)], 0, 10) == 0
    assert spans.covered_length([(2, 9), (3, 4), (1, 2.5)], 0, 10) == 8


def test_self_times_nested_and_overlapping_spans():
    rows = [
        (0, spans.NO_PARENT, "a", 0.0, 10.0),
        (1, 0, "b", 1.0, 3.0),        # overlaps its sibling below
        (2, 0, "b", 2.0, 5.0),
        (3, 1, "c", 1.5, 2.5),        # grandchild: counts against b only
        (4, 0, "c", 8.0, 12.0),       # sticks out of its parent
        (5, spans.NO_PARENT, "a", 20.0, 21.0),
    ]
    own = spans.self_times(span_set(rows))
    np.testing.assert_allclose(own, [10 - 4 - 2, 1.0, 3.0, 1.0, 4.0, 1.0])


def test_layer_totals_sum_self_time_per_name_across_processes():
    first = span_set([(0, -1, "a", 0.0, 4.0), (1, 0, "b", 1.0, 2.0)])
    second = span_set([(0, -1, "b", 0.0, 3.0)])
    totals = spans.layer_totals([first, second])
    assert totals["a"] == {"self_s": 3.0, "incl_s": 4.0, "calls": 1}
    assert totals["b"] == {"self_s": 4.0, "incl_s": 4.0, "calls": 2}


def test_run_walls_split_a_bank_evenly():
    rows = [
        (0, -1, "runner.run", 0.0, 2.0, 0),
        (1, -1, "seedbank.execute", 2.0, 8.0, 1),
    ]
    walls = spans.run_walls([span_set(rows, runs=["s#0", "s#1,2,3"])])
    assert walls == [2.0, 2.0, 2.0, 2.0]


def test_tracer_records_nested_spans_and_restores_entry_points(tmp_path):
    from repro.cluster import host
    from repro.simulator import noise

    original = noise.hash_normal_unit
    points = spans.SPAN_POINTS + (spans.SpanPoint("repro.nowhere", "gone", "x"),)
    tracer = spans.Tracer(tmp_path, points=points).install()
    try:
        assert host.hash_normal_unit is not original  # by-name import wrapped too
        values = noise.ou_like_noise_values(7, "k", [0.5, 1.0, 1.5], 0.5, 1.0)
        with tracer.paused():
            noise.hash_normal_unit(7, "k", 99)
    finally:
        tracer.uninstall()
    assert host.hash_normal_unit is original and noise.hash_normal_unit is original
    assert values == noise.ou_like_noise_values(7, "k", [0.5, 1.0, 1.5], 0.5, 1.0)
    assert tracer.missing == ["repro.nowhere:gone"]
    recorded = tracer.take()
    names = [recorded.name_table[i] for i in recorded.names]
    assert names.count("noise.hash") == len(names) > 1
    outer = int(np.argmax(recorded.ends - recorded.starts))
    inner = [i for i in range(len(recorded)) if i != outer]
    assert all(recorded.parents[i] == recorded.ids[outer] for i in inner)
    assert len(tracer.take()) == 0


def test_span_sets_round_trip_through_files(tmp_path):
    original = span_set([(0, -1, "a", 0.0, 1.0, 0)], counters={"x": 2.0}, runs=["s#0"])
    spans.save_spans(original, tmp_path / "spans-1-0.npz")
    (loaded,) = spans.collect_spans(tmp_path)
    assert loaded.name_table == ["a"] and loaded.run_table == ["s#0"]
    assert loaded.counters == {"x": 2.0}
    np.testing.assert_array_equal(loaded.ends, original.ends)


# ---------------------------------------------------------------------------
# Digest agreement
# ---------------------------------------------------------------------------
def test_disagreeing_runs_counts_changed_and_one_sided_runs():
    reference = {"a#0": "1", "a#1": "2", "b#0": "3"}
    assert workloads.disagreeing_runs(reference, dict(reference)) == 0
    assert workloads.disagreeing_runs(reference, {"a#0": "1", "a#1": "X", "b#0": "3"}) == 1
    assert workloads.disagreeing_runs(reference, {"a#0": "1", "b#0": "3", "c#0": "4"}) == 2


def test_combined_digest_depends_on_order_and_content():
    one = {"a#0": "1", "a#1": "2"}
    assert workloads.combined_digest(one) == workloads.combined_digest(dict(one))
    assert workloads.combined_digest(one) != workloads.combined_digest({"a#1": "2", "a#0": "1"})
    assert workloads.combined_digest(one) != workloads.combined_digest({"a#0": "1", "a#1": "3"})


def test_verify_recomputes_a_run_of_every_scenario(tmp_path):
    from repro.experiments.runner import ScenarioRunner

    result = ScenarioRunner(seed=3).run_campaign(SMOKE.scenarios(), min_runs=2, max_runs=2)
    checker = workloads.Checker(seed=3, scratch=tmp_path / "samples.json")
    checker.adopt(result)
    assert checker.verify()
    # Corrupt the reference of the sixth scenario only: a check that
    # recomputed just a few runs would not reach it.
    label = SMOKE.scenarios()[5].label
    corrupted = {
        key: ("0" * 64 if key.rpartition("#")[0] == label else digest)
        for key, digest in checker.reference.items()
    }
    checker.adopt(result, corrupted)
    assert not checker.verify()


# ---------------------------------------------------------------------------
# Smoke runs: 8 scenarios x 5 runs (the least Table VII can be fitted on)
# ---------------------------------------------------------------------------
SMOKE = workloads.Protocol(scenario_limit=8, min_runs=5, max_runs=5)


def smoke_campaign(name, work, trace_dir=None, tracer=None):
    checker = workloads.Checker(seed=3, scratch=work / "samples.json")
    workload = workloads.WORKLOADS[name](SMOKE, 3, work, trace_dir=trace_dir)
    try:
        workload.setup()
        if workload.setup_result is not None:
            checker.adopt(workload.setup_result)
        if tracer is not None:
            with tracer:
                record = workloads.run_campaign(workload, checker, quiet=tracer.paused)
        else:
            record = workloads.run_campaign(workload, checker)
    finally:
        workload.close()
    return record, checker


def test_every_workload_produces_the_same_samples(tmp_path):
    digests = {}
    for name in workloads.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        record, checker = smoke_campaign(name, work)
        assert record.error is None
        assert record.mismatched == 0 and checker.verify()
        assert record.runs_kept == record.attempted == 40
        assert record.table7_s >= record.campaign_s > 0
        if name == "paper-warm":
            assert (record.runs_executed, record.runs_cached) == (0, 40)
        digests[name] = record.digest
    assert len(set(digests.values())) == 1, digests


def test_traced_run_collects_worker_spans(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    tracer = spans.Tracer(trace_dir)
    record, _ = smoke_campaign("paper-queue2", tmp_path, trace_dir=trace_dir, tracer=tracer)
    assert record.error is None and record.mismatched == 0
    worker_sets = spans.collect_spans(trace_dir)
    assert worker_sets, "worker processes wrote no spans"
    metrics = spans.layer_metrics(
        [tracer.take()] + worker_sets, campaigns=1,
        campaign_wall_s=record.campaign_s, lanes=2, executors=tracer.executors,
    )
    for layer in ("sampling.advance_ms", "noise.hash_ms", "testbed.build_ms",
                  "cache.put_ms", "analysis.sample_for_ms", "models.fit_ms.WAVM3"):
        assert metrics[layer] > 0, layer
    assert metrics["testbed.builds"] == 40
    assert 0 < metrics["executor.lane_busy_ratio"] <= 1.0
    assert metrics["queue.tasks_dispatched"] > 0


def run_in_process(capsys, monkeypatch, work, *argv):
    import run

    # 8 scenarios x 5 runs are too few for the Table VII ordering to hold.
    monkeypatch.setattr(workloads, "GATING_CLAIMS", ())
    work.mkdir(exist_ok=True)
    args = run.parse_args(["--workload", "paper-warm", "--seed", "3", "--seconds", "0.2", *argv])
    assert run.measure_workload(args, work, protocol=SMOKE) == 0
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads(lines[-2][len(run.PAYLOAD_PREFIX):])
    return json.loads(lines[-1]), payload, run


def test_run_prints_one_result_line_per_contract(tmp_path, capsys, monkeypatch):
    result, payload, run = run_in_process(capsys, monkeypatch, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # A fast host fits more than one smoke campaign into the 0.2 s budget.
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 40 * payload["campaigns"] >= 40
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert payload["reference_verified"] and payload["options"]["cache"]


def test_traced_run_fails_when_a_needed_layer_records_nothing(tmp_path, capsys, monkeypatch):
    result, payload, run = run_in_process(capsys, monkeypatch, tmp_path / "ok", "--trace", "1")
    assert result["correct"] and set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert payload["unrecorded_layers"] == []
    # A renamed entry point leaves its layer without spans; its metric
    # would read 0, so the run must not pass as correct.
    monkeypatch.setattr(workloads.WarmCacheWorkload, "layers",
                        workloads.WarmCacheWorkload.layers + (("io.renamed",),))
    result, payload, _ = run_in_process(capsys, monkeypatch, tmp_path / "renamed", "--trace", "1")
    assert not result["correct"]
    assert payload["unrecorded_layers"] == ["io.renamed"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-serial", "--seed", "0",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
