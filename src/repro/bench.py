"""Performance microbenchmarks (``wavm3 bench``).

The repo's first-class perf harness: a small suite of deterministic
microbenchmarks over the three hot layers —

* **campaign** — a single-scenario measurement campaign executed twice,
  once per telemetry implementation (``batched`` fast path vs ``events``
  reference), reporting runs/sec and samples/sec for each plus the
  dimensionless ``speedup`` between them (the headline number of the
  telemetry fast path; the two paths are bit-identical, see
  ``docs/performance.md``);
* **simulator** — a pure event-heap storm (schedule + fire), reporting
  events/sec;
* **telemetry** — one instrumented testbed sampled over a long event-free
  window per mode, reporting samples/sec.

Results are written as machine-readable ``BENCH_<rev>.json`` so the repo
accumulates a perf trajectory, and :func:`check_regression` compares the
*dimensionless* metrics (speedups — stable across machines, unlike raw
throughput) against a committed baseline; CI's ``perf-smoke`` job fails
on a >25 % regression.

Timing uses the best of ``repeats`` interleaved repetitions of
``time.perf_counter`` so one noisy scheduler slice cannot sink a mode.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time
from typing import Optional, Union

from repro._version import __version__
from repro.errors import ReproError
from repro.experiments.design import MigrationScenario
from repro.experiments.runner import RunnerSettings, ScenarioRunner
from repro.simulator.engine import Simulator

__all__ = [
    "BENCH_SCHEMA",
    "bench_campaign",
    "bench_simulator",
    "bench_telemetry",
    "check_regression",
    "collect_bench_history",
    "current_revision",
    "render_bench_history",
    "run_benchmarks",
    "write_bench_json",
]

BENCH_SCHEMA = "wavm3-bench/1"

#: The single-scenario campaign microbenchmark: a non-live migration on
#: otherwise idle hosts — the protocol's stabilisation phases dominate,
#: which is exactly the per-sample kernel the fast path targets.
_CAMPAIGN_SCENARIO = dict(
    experiment="CPULOAD-SOURCE", label="bench/nl/0vm", live=False, load_vm_count=0
)
_CAMPAIGN_SEED = 0


def current_revision() -> str:
    """Short git revision of the working tree, or ``"untracked"``.

    A tree whose tracked files differ from ``HEAD`` is labelled
    ``<rev>-dirty``: its numbers measure uncommitted code, not ``<rev>``.
    """
    def git(*args: str):
        return subprocess.run(
            ["git", *args],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )

    try:
        out = git("rev-parse", "--short", "HEAD")
        rev = out.stdout.strip()
        if out.returncode != 0 or not rev:
            return "untracked"
        dirty = git("diff", "--quiet", "HEAD", "--").returncode != 0
    except (OSError, subprocess.TimeoutExpired):
        return "untracked"
    return f"{rev}-dirty" if dirty else rev


def _best_of(repeats: int, fn) -> float:
    """Minimum wall time of ``repeats`` invocations of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_campaign(runs: int = 2, repeats: int = 3, seed: int = _CAMPAIGN_SEED) -> dict:
    """The single-scenario campaign microbenchmark, one pass per telemetry mode.

    Parameters
    ----------
    runs:
        Runs per campaign pass (``min_runs == max_runs``, no adaptive
        top-up, so both modes execute exactly the same workload).
    repeats:
        Interleaved repetitions per mode; the best time counts.
    seed:
        Campaign master seed (fixed: the benchmark is deterministic).

    Returns
    -------
    dict
        Per-mode wall time, runs/sec and samples/sec, plus ``speedup``
        (events wall time over batched wall time).
    """
    scenario = MigrationScenario(**_CAMPAIGN_SCENARIO)
    results: dict[str, dict] = {}
    times = {"batched": float("inf"), "events": float("inf")}
    samples = {"batched": 0, "events": 0}
    for _ in range(max(1, repeats)):
        for mode in ("events", "batched"):
            runner = ScenarioRunner(seed=seed, settings=RunnerSettings(telemetry=mode))
            t0 = time.perf_counter()
            result = runner.run_campaign([scenario], min_runs=runs, max_runs=runs)
            elapsed = time.perf_counter() - t0
            times[mode] = min(times[mode], elapsed)
            samples[mode] = sum(
                len(run.source_trace) + len(run.target_trace) + len(run.features)
                for sr in result.scenario_results
                for run in sr.runs
            )
    for mode in ("events", "batched"):
        results[mode] = {
            "wall_s": times[mode],
            "runs_per_s": runs / times[mode],
            "samples_per_s": samples[mode] / times[mode],
        }
    results["speedup"] = times["events"] / times["batched"]
    results["runs"] = runs
    results["scenario"] = scenario.label
    return results


def bench_simulator(n_events: int = 50_000, repeats: int = 3) -> dict:
    """Pure event-kernel throughput: schedule ``n_events``, drain the heap."""
    def storm() -> None:
        sim = Simulator()
        bump = [0]

        def tick() -> None:
            bump[0] += 1

        for i in range(n_events):
            sim.schedule(((i * 2654435761) % 1000) / 1000.0 + 0.001, tick)
        sim.run()
        assert sim.processed_events == n_events

    wall = _best_of(repeats, storm)
    return {
        "wall_s": wall,
        "events": n_events,
        "events_per_s": n_events / wall,
    }


def bench_telemetry(sim_seconds: float = 300.0, repeats: int = 3) -> dict:
    """Instrumented-testbed sampling throughput per telemetry mode.

    One testbed per pass with both power meters and a dstat monitor per
    host running, no migration events: measures the pure sampling
    kernels over a ``sim_seconds`` window, advanced in 10 s strides.
    """
    from repro.experiments.testbed import Testbed
    from repro.telemetry.dstat import DstatMonitor

    out: dict[str, dict] = {}
    for mode in ("events", "batched"):
        def sample_window() -> None:
            bed = Testbed(seed=1, telemetry=mode)
            dstats = [
                DstatMonitor(bed.sim, host, batched=mode == "batched")
                for host in (bed.source, bed.target)
            ]
            bed.start_instrumentation()
            for dstat in dstats:
                dstat.start()
            steps = int(sim_seconds / 10.0)
            for _ in range(steps):
                bed.sim.run_for(10.0)
            bed.stop_instrumentation()
            for dstat in dstats:
                dstat.stop()
            sample_window.samples = (  # type: ignore[attr-defined]
                len(bed.source_meter.trace) + len(bed.target_meter.trace)
                + sum(len(dstat.trace) for dstat in dstats)
            )

        wall = _best_of(repeats, sample_window)
        out[mode] = {
            "wall_s": wall,
            "samples_per_s": sample_window.samples / wall,  # type: ignore[attr-defined]
        }
    out["speedup"] = out["events"]["wall_s"] / out["batched"]["wall_s"]
    return out


def run_benchmarks(quick: bool = False, repeats: Optional[int] = None) -> dict:
    """Run the full suite and assemble the ``BENCH_<rev>.json`` payload.

    Parameters
    ----------
    quick:
        CI-friendly sizes (fewer campaign runs, smaller event storm).
    repeats:
        Override the per-benchmark repetition count.

    Returns
    -------
    dict
        The schema-tagged payload (see :data:`BENCH_SCHEMA`).
    """
    reps = repeats if repeats is not None else (3 if quick else 5)
    payload = {
        "schema": BENCH_SCHEMA,
        "revision": current_revision(),
        "version": __version__,
        "quick": bool(quick),
        "generated_at": time.time(),
        "results": {
            "campaign": bench_campaign(runs=2 if quick else 3, repeats=reps),
            "simulator": bench_simulator(
                n_events=10_000 if quick else 50_000, repeats=reps
            ),
            "telemetry": bench_telemetry(
                sim_seconds=100.0 if quick else 300.0, repeats=reps
            ),
        },
    }
    return payload


def write_bench_json(payload: dict, output_dir: Union[str, pathlib.Path] = ".") -> pathlib.Path:
    """Write the payload as ``BENCH_<rev>.json`` and return the path."""
    output_dir = pathlib.Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"BENCH_{payload['revision']}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
    return path


def collect_bench_history(root: Union[str, pathlib.Path] = ".") -> list[dict]:
    """Gather every ``BENCH_<rev>.json`` under a directory, oldest first.

    The perf-trajectory input: committed bench payloads accumulate one
    per revision (``benchmarks/``, the repo root, CI artifact folders …),
    and this walks ``root`` recursively for all of them.  Unreadable or
    wrong-schema files are skipped — the trajectory must render even when
    one old artifact predates a schema change.

    Parameters
    ----------
    root:
        Directory to scan (recursive).

    Returns
    -------
    list[dict]
        Valid payloads sorted by their ``generated_at`` stamp (file mtime
        for payloads predating the stamp).
    """
    root = pathlib.Path(root)
    entries: list[tuple[float, dict]] = []
    for path in sorted(root.rglob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
            continue
        stamp = payload.get("generated_at")
        if not isinstance(stamp, (int, float)):
            try:
                stamp = path.stat().st_mtime
            except OSError:
                stamp = 0.0
        entries.append((float(stamp), payload))
    entries.sort(key=lambda item: item[0])
    return [payload for _, payload in entries]


def render_bench_history(payloads: list[dict]) -> str:
    """Render the perf trajectory across accumulated bench payloads.

    One row per payload (oldest first): raw campaign throughput plus the
    dimensionless batched-vs-events speedups of every benchmark that
    carries one — the cross-revision view that makes a regression visible
    against the whole history, not just one baseline.

    Parameters
    ----------
    payloads:
        :func:`collect_bench_history` output (or any list of
        ``wavm3-bench/1`` payloads).

    Returns
    -------
    str
        A fixed-width table, or a short notice when ``payloads`` is empty.
    """
    if not payloads:
        return "no BENCH_<rev>.json files found"

    def _metric(payload: dict, dotted: str, spec: str = ".2f") -> str:
        value = _lookup(payload, dotted)
        return format(value, spec) if isinstance(value, (int, float)) else "-"

    header = (
        f"{'revision':12s} {'quick':5s} {'runs/s':>8s} {'events/s':>12s} "
        f"{'campaign x':>10s} {'telemetry x':>11s}"
    )
    lines = [header, "-" * len(header)]
    for payload in payloads:
        # _metric renders "-" for absent metrics, so payloads predating
        # a benchmark still render instead of raising.
        lines.append(
            f"{str(payload.get('revision', '?')):12s} "
            f"{('yes' if payload.get('quick') else 'no'):5s} "
            f"{_metric(payload, 'campaign.batched.runs_per_s'):>8s} "
            f"{_metric(payload, 'simulator.events_per_s', ',.0f'):>12s} "
            f"{_metric(payload, 'campaign.speedup'):>10s} "
            f"{_metric(payload, 'telemetry.speedup'):>11s}"
        )
    return "\n".join(lines)


def _lookup(payload: dict, dotted: str):
    node = payload.get("results", payload)
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_regression(
    payload: dict,
    baseline: dict,
    tolerance: float = 0.25,
) -> list[str]:
    """Compare a bench payload against a committed baseline.

    Only the baseline's ``guarded`` metrics are enforced — dimensionless
    ratios such as ``campaign.speedup`` that transfer across machines
    (raw runs/sec on a shared CI runner would be pure noise).  A metric
    regresses when it falls below ``baseline * (1 - tolerance)``.

    Parameters
    ----------
    payload:
        A :func:`run_benchmarks` result.
    baseline:
        The committed baseline document: ``{"schema": ..., "guarded":
        {"campaign.speedup": 5.0, ...}}``.
    tolerance:
        Allowed relative shortfall (0.25 = fail below 75 % of baseline).

    Returns
    -------
    list[str]
        Human-readable failure lines; empty when everything holds.
    """
    if not 0 <= tolerance < 1:
        raise ReproError(f"tolerance must be in [0, 1), got {tolerance!r}")
    guarded = baseline.get("guarded")
    if not isinstance(guarded, dict) or not guarded:
        raise ReproError("baseline has no 'guarded' metrics to enforce")
    failures = []
    for metric, floor_value in guarded.items():
        value = _lookup(payload, metric)
        if not isinstance(value, (int, float)):
            failures.append(f"{metric}: missing from bench results")
            continue
        floor = float(floor_value) * (1.0 - tolerance)
        if value < floor:
            failures.append(
                f"{metric}: {value:.3f} < {floor:.3f} "
                f"(baseline {float(floor_value):.3f} - {tolerance:.0%})"
            )
    return failures
