"""The ``wavm3 bench`` perf harness: schema, metrics, regression gate."""

import json

import pytest

import repro.bench
from repro.bench import (
    BENCH_SCHEMA,
    bench_simulator,
    bench_telemetry,
    check_regression,
    current_revision,
    run_benchmarks,
    write_bench_json,
)
from repro.cli import build_parser, main
from repro.errors import ReproError


@pytest.fixture(scope="session")
def quick_payload():
    """The one tiny full-suite run of the session, shared by every test."""
    return run_benchmarks(quick=True, repeats=1)


@pytest.fixture
def bench_calls(quick_payload, monkeypatch):
    """Serve ``wavm3 bench`` from the shared payload; records each call."""
    calls = []

    def fake_run_benchmarks(quick=False, repeats=None):
        calls.append({"quick": quick, "repeats": repeats})
        return quick_payload

    monkeypatch.setattr(repro.bench, "run_benchmarks", fake_run_benchmarks)
    return calls


class TestBenchmarks:
    def test_payload_schema_and_metrics(self, quick_payload):
        assert quick_payload["schema"] == BENCH_SCHEMA
        assert quick_payload["revision"]
        results = quick_payload["results"]
        campaign = results["campaign"]
        for mode in ("batched", "events"):
            assert campaign[mode]["wall_s"] > 0
            assert campaign[mode]["runs_per_s"] > 0
            assert campaign[mode]["samples_per_s"] > 0
        assert campaign["speedup"] > 1.0  # the fast path must actually be fast
        assert set(results) == {"campaign", "simulator", "telemetry"}
        assert results["simulator"]["events_per_s"] > 0
        assert results["telemetry"]["speedup"] > 1.0

    def test_campaign_modes_measure_identical_workloads(self, quick_payload):
        campaign = quick_payload["results"]["campaign"]
        # same scenario, same runs: the sample counts divide out of the
        # throughput comparison
        assert campaign["runs"] == 2
        assert (
            campaign["batched"]["wall_s"] * campaign["batched"]["samples_per_s"]
            == pytest.approx(
                campaign["events"]["wall_s"] * campaign["events"]["samples_per_s"]
            )
        )
        assert campaign["batched"]["samples_per_s"] > campaign["events"]["samples_per_s"]

    def test_simulator_bench_counts_events(self):
        result = bench_simulator(n_events=2000, repeats=1)
        assert result["events"] == 2000
        assert result["events_per_s"] > 0

    def test_telemetry_bench_modes(self):
        result = bench_telemetry(sim_seconds=50.0, repeats=1)
        assert result["batched"]["samples_per_s"] > result["events"]["samples_per_s"]

    def test_write_bench_json(self, quick_payload, tmp_path):
        path = write_bench_json(quick_payload, tmp_path)
        assert path.name == f"BENCH_{quick_payload['revision']}.json"
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["results"]["campaign"]["speedup"] > 0

    def test_current_revision_is_stringy(self):
        assert isinstance(current_revision(), str) and current_revision()

    def test_current_revision_marks_uncommitted_edits_dirty(self, tmp_path, monkeypatch):
        import subprocess

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        module = tmp_path / "bench.py"
        module.write_text("x = 1\n", encoding="utf-8")
        git("add", "bench.py")
        git("commit", "-q", "-m", "seed")
        rev = git("rev-parse", "--short", "HEAD")
        monkeypatch.setattr(repro.bench, "__file__", str(module))
        assert current_revision() == rev
        module.write_text("x = 2\n", encoding="utf-8")
        assert current_revision() == f"{rev}-dirty"


class TestRegressionGate:
    def test_passes_within_tolerance(self, quick_payload):
        baseline = {"guarded": {"campaign.speedup": quick_payload["results"]["campaign"]["speedup"]}}
        assert check_regression(quick_payload, baseline, tolerance=0.25) == []

    def test_fails_below_floor(self, quick_payload):
        baseline = {"guarded": {"campaign.speedup": 10_000.0}}
        failures = check_regression(quick_payload, baseline, tolerance=0.25)
        assert failures and "campaign.speedup" in failures[0]

    def test_missing_metric_reported(self, quick_payload):
        failures = check_regression(
            quick_payload, {"guarded": {"no.such.metric": 1.0}}, tolerance=0.1
        )
        assert failures == ["no.such.metric: missing from bench results"]

    def test_empty_baseline_rejected(self, quick_payload):
        with pytest.raises(ReproError):
            check_regression(quick_payload, {}, tolerance=0.1)
        with pytest.raises(ReproError):
            check_regression(quick_payload, {"guarded": {"a": 1}}, tolerance=1.5)

    def test_committed_baseline_guards_the_acceptance_floor(self):
        import pathlib

        baseline = json.loads(
            (pathlib.Path(__file__).resolve().parents[1] / "benchmarks" /
             "bench_baseline.json").read_text(encoding="utf-8")
        )
        assert baseline["guarded"] == {"campaign.speedup": 5.0, "telemetry.speedup": 5.0}


class TestBenchCli:
    def test_parser_accepts_bench(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--repeats", "2", "--output-dir", "/tmp/x",
             "--check", "b.json", "--tolerance", "0.3"]
        )
        assert args.command == "bench"
        assert args.quick and args.repeats == 2

    def test_parser_rejects_bad_repeats(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--repeats", "0"])

    def test_cli_end_to_end(self, tmp_path, capsys, bench_calls, quick_payload):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"guarded": {"campaign.speedup": 1.1}}))
        code = main(
            ["bench", "--quick", "--repeats", "1",
             "--output-dir", str(tmp_path), "--check", str(baseline)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert bench_calls == [{"quick": True, "repeats": 1}]
        assert "speedup" in out and "perf-smoke ok" in out
        (written,) = tmp_path.glob("BENCH_*.json")
        assert written.name == f"BENCH_{quick_payload['revision']}.json"
        assert json.loads(written.read_text(encoding="utf-8")) == json.loads(
            json.dumps(quick_payload)
        )

    def test_cli_regression_exit_code(self, tmp_path, capsys, bench_calls):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"guarded": {"campaign.speedup": 9999.0}}))
        code = main(
            ["bench", "--output-dir", str(tmp_path), "--check", str(baseline)]
        )
        assert code == 1
        assert bench_calls == [{"quick": False, "repeats": None}]
        assert "campaign.speedup" in capsys.readouterr().out
