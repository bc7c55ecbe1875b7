"""Performance microbenchmarks (``wavm3 bench``).

The repo's first-class perf harness: a small suite of deterministic
microbenchmarks over the three hot layers —

* **campaign** — a single-scenario measurement campaign executed twice,
  once per telemetry implementation (``batched`` fast path vs ``events``
  reference), reporting runs/sec and samples/sec for each plus the
  dimensionless ``speedup`` between them (the headline number of the
  telemetry fast path; the two paths are bit-identical, see
  ``docs/performance.md``);
* **batch** — the identical campaign dispatched through the HTTP
  backend twice, per-run tasks vs one seed-batched task per wave
  (``--batch-size auto``), plus an in-process serial baseline,
  reporting the dispatch-overhead amortisation ``overhead_x``
  (per-run overhead over batched overhead, simulation time
  subtracted out);
* **simulator** — a pure event-heap storm (schedule + fire), reporting
  events/sec;
* **telemetry** — one instrumented testbed sampled over a long event-free
  window per mode, reporting samples/sec;
* **compute** — the same sampling window per ``compute=`` kernel mode
  (all-scalar ``python`` reference vs the vectorized ``numpy`` default),
  reporting samples/sec and the guarded
  ``compute.speedup``;
* **sched** — the identical ``--batch-size auto`` campaign on a
  deterministic two-lane fleet with an induced straggler, even-split
  cold planning vs throughput-adaptive spans, reporting the guarded
  wave-tail collapse ``sched.tail_x``;
* **agg** — a >= 10k-run synthetic campaign through both aggregation
  paths, one-shot samples JSON vs the streaming columnar store,
  reporting the guarded peak-memory ratio ``agg.mem_x``.

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
from repro.models.features import HostRole
from repro.simulator.engine import Simulator

__all__ = [
    "BENCH_SCHEMA",
    "bench_aggregate",
    "bench_batch",
    "bench_campaign",
    "bench_compute",
    "bench_consolidation",
    "bench_scheduler",
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

#: The consolidation microbenchmark: a manager-driven drain under the
#: full measurement protocol.  Exercises the control-plane half the
#: campaign benchmark does not touch — the manager's ControlLoop riding
#: the engine's two-phase control-hook protocol vs one heap event per
#: monitoring tick.
_CONSOLIDATION_SCENARIO = dict(
    experiment="CONSOLIDATION-CPU", label="bench/consolidation/0vm",
    live=False, load_vm_count=0, load_on="target", driver="manager",
)


def current_revision() -> str:
    """Short git revision of the working tree, or ``"untracked"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "untracked"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "untracked"


def _best_of(repeats: int, fn) -> float:
    """Minimum wall time of ``repeats`` invocations of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_scenario_cross_mode(scenario: MigrationScenario, runs: int, repeats: int, seed: int) -> dict:
    """One single-scenario campaign per telemetry mode, interleaved timing."""
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
    return _bench_scenario_cross_mode(
        MigrationScenario(**_CAMPAIGN_SCENARIO), runs, repeats, seed
    )


def bench_consolidation(runs: int = 2, repeats: int = 3, seed: int = _CAMPAIGN_SEED) -> dict:
    """The consolidation microbenchmark, one pass per telemetry mode.

    A manager-driven drain scenario (``driver="manager"``) run under the
    full Section V-B protocol: the consolidation manager's monitoring
    loop, the estimator-backed policy and the batched instruments all ride
    the shared control plane.  The two passes are bit-identical (the
    cross-path golden tests assert it); the dimensionless ``speedup`` is
    the guarded number.

    Parameters
    ----------
    runs / repeats / seed:
        As in :func:`bench_campaign`.

    Returns
    -------
    dict
        Per-mode wall time, runs/sec and samples/sec, plus ``speedup``.
    """
    return _bench_scenario_cross_mode(
        MigrationScenario(**_CONSOLIDATION_SCENARIO), runs, repeats, seed
    )


#: Shortened measurement protocol for the batch microbenchmark: the
#: simulation work is identical across arms (and subtracted out by the
#: serial baseline), so a short protocol just raises the dispatch
#: overhead's share of the wall and stabilises the subtraction.
_BATCH_SETTINGS = dict(
    min_warmup_s=2.0, max_warmup_s=6.0, min_post_s=2.0, max_post_s=6.0,
    check_interval_s=1.0,
)


def bench_batch(runs: int = 12, repeats: int = 3, seed: int = _CAMPAIGN_SEED) -> dict:
    """Batched vs per-run dispatch over the HTTP campaign service.

    The batch execution path exists to amortise *dispatch* cost: every
    per-run HTTP task pays its own claim/result round-trip plus a
    heartbeat-thread lifecycle, while a batch ships the whole seed wave
    as one ``wavm3-taskspec/2`` spec and one ``wavm3-runbatch/1``
    upload.  The simulation work itself is identical by construction
    (bit-identity is asserted by the golden tests), so the honest number
    is the **dispatch-overhead amortisation**

    ``overhead_x = (per_run - serial) / (batched - serial)``

    where ``serial`` is the same campaign on the in-process serial
    backend: subtracting it isolates what batching can actually change.
    (On localhost the *total* wall moves far less — the per-run HTTP
    overhead is ~3 ms against a ~6 ms simulation floor — which is why
    the raw walls are reported but not guarded.)  Each arm is timed up
    to campaign completion, excluding coordinator shutdown, which is a
    fixed cost shared by both HTTP arms.

    Parameters
    ----------
    runs:
        Runs per campaign pass (``min_runs == max_runs``).
    repeats:
        Interleaved repetitions per arm; the best time counts.
    seed:
        Campaign master seed.

    Returns
    -------
    dict
        Per-arm wall time and runs/sec (``serial`` / ``per_run`` /
        ``batched``), plus the guarded ``overhead_x``, ``speedup`` (raw
        per-run over batched wall), ``runs`` and the scenario label.
    """
    import tempfile
    import threading

    from repro.experiments.executor import CampaignExecutor
    from repro.experiments.http_backend import run_http_worker

    scenario = MigrationScenario(**_CAMPAIGN_SCENARIO)
    times = {"serial": float("inf"), "per_run": float("inf"), "batched": float("inf")}

    def http_arm(batch_size) -> float:
        with tempfile.TemporaryDirectory() as tmp:
            executor = CampaignExecutor(
                ScenarioRunner(seed=seed, settings=RunnerSettings(**_BATCH_SETTINGS)),
                backend="http",
                cache_dir=pathlib.Path(tmp) / "cache",
                serve="127.0.0.1:0",
                batch_size=batch_size,
                http_options={
                    "stop_workers_on_shutdown": True,
                    "stop_grace_s": 2.0,
                },
            )
            worker = threading.Thread(
                target=run_http_worker,
                args=(executor.serve_url,),
                kwargs={"poll_interval": 0.01, "worker_id": "bench-w0"},
                daemon=True,
            )
            worker.start()
            # Time to campaign completion: stop the clock when the wave
            # scheduler is done and hands over to backend.shutdown()
            # (whose fixed teardown cost is identical for both arms).
            done = {}
            backend_shutdown = executor._backend.shutdown

            def timed_shutdown() -> None:
                done.setdefault("at", time.perf_counter())
                backend_shutdown()

            executor._backend.shutdown = timed_shutdown
            t0 = time.perf_counter()
            executor.run_campaign([scenario], min_runs=runs, max_runs=runs)
            wall = done["at"] - t0
            worker.join(timeout=10.0)
            return wall

    def serial_arm() -> float:
        executor = CampaignExecutor(
            ScenarioRunner(seed=seed, settings=RunnerSettings(**_BATCH_SETTINGS))
        )
        t0 = time.perf_counter()
        executor.run_campaign([scenario], min_runs=runs, max_runs=runs)
        return time.perf_counter() - t0

    for _ in range(max(1, repeats)):
        times["serial"] = min(times["serial"], serial_arm())
        times["per_run"] = min(times["per_run"], http_arm(1))
        times["batched"] = min(times["batched"], http_arm(None))

    per_run_overhead = max(times["per_run"] - times["serial"], 1e-9)
    batched_overhead = max(times["batched"] - times["serial"], 1e-9)
    return {
        "serial": {
            "wall_s": times["serial"],
            "runs_per_s": runs / times["serial"],
        },
        "per_run": {
            "wall_s": times["per_run"],
            "runs_per_s": runs / times["per_run"],
        },
        "batched": {
            "wall_s": times["batched"],
            "runs_per_s": runs / times["batched"],
        },
        "overhead_x": per_run_overhead / batched_overhead,
        "speedup": times["per_run"] / times["batched"],
        "runs": runs,
        "scenario": scenario.label,
    }


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

    One testbed per pass, all instruments running, no migration events:
    measures the pure sampling kernels over a ``sim_seconds`` window,
    advanced in 10 s strides — the interval length the runner's
    stabilisation look-ahead typically produces during a campaign's
    measurement phases.
    """
    from repro.experiments.testbed import Testbed

    out: dict[str, dict] = {}
    for mode in ("events", "batched"):
        def sample_window() -> None:
            bed = Testbed(seed=1, telemetry=mode)
            bed.start_instrumentation()
            steps = int(sim_seconds / 10.0)
            for _ in range(steps):
                bed.sim.run_for(10.0)
            bed.stop_instrumentation()
            sample_window.samples = (  # type: ignore[attr-defined]
                len(bed.source_meter.trace) + len(bed.target_meter.trace)
                + len(bed.source_dstat.trace) + len(bed.target_dstat.trace)
            )

        wall = _best_of(repeats, sample_window)
        out[mode] = {
            "wall_s": wall,
            "samples_per_s": sample_window.samples / wall,  # type: ignore[attr-defined]
        }
    out["speedup"] = out["events"]["wall_s"] / out["batched"]["wall_s"]
    return out


def bench_compute(sim_seconds: float = 1000.0, repeats: int = 3) -> dict:
    """Instrumented-testbed sampling throughput per ``compute=`` mode.

    One long event-free sampling window (all instruments on the batched
    path, a single ``run_for`` stride so the interval kernels see full
    batches instead of 10 s slivers), once per compute kernel: the
    all-scalar ``"python"`` reference and the vectorized ``"numpy"``
    default.  Testbed construction happens outside the timed span — this
    measures sampling arithmetic, not cluster setup.  Both modes are
    bit-identical (the cross-mode golden tests assert it), so the honest
    number is the dimensionless ``speedup`` — python wall time over numpy
    wall time.
    """
    from repro.experiments.testbed import Testbed

    modes = ["python", "numpy"]
    out: dict[str, object] = {"modes": modes}
    walls = {mode: float("inf") for mode in modes}
    samples = {mode: 0 for mode in modes}
    # Interleave the modes inside each repeat (like the cross-telemetry
    # bench): a noisy scheduler slice then lands on every mode's same
    # repeat instead of sinking one mode's whole best-of series.
    for _ in range(max(1, repeats)):
        for mode in modes:
            bed = Testbed(seed=1, compute=mode)
            bed.start_instrumentation()
            t0 = time.perf_counter()
            bed.sim.run_for(sim_seconds)
            walls[mode] = min(walls[mode], time.perf_counter() - t0)
            bed.stop_instrumentation()
            samples[mode] = (
                len(bed.source_meter.trace) + len(bed.target_meter.trace)
                + len(bed.source_dstat.trace) + len(bed.target_dstat.trace)
            )
    for mode in modes:
        out[mode] = {
            "wall_s": walls[mode],
            "samples_per_s": samples[mode] / walls[mode],
        }
    out["speedup"] = out["python"]["wall_s"] / out["numpy"]["wall_s"]  # type: ignore[index]
    return out


def bench_scheduler(runs: int = 12, repeats: int = 3, seed: int = _CAMPAIGN_SEED) -> dict:
    """Even-split vs throughput-adaptive wave planning on a skewed fleet.

    A deterministic two-lane backend executes real runs in worker
    threads, with a fixed per-run dispatch delay per lane — lane1's is
    an induced straggler an order of magnitude slower than lane0's.
    Chunks go to lanes round-robin in dispatch order, mirroring an idle
    fleet claiming the executor's fastest-lane-first dispatch.  Two
    ``--batch-size auto`` arms run the identical campaign:

    * **static** — a cold :class:`~repro.experiments.scheduler.
      ThroughputModel`, so the wave falls back to the legacy even split
      and finishes at the slow lane's pace;
    * **adaptive** — a model pre-warmed by an untimed per-run campaign
      over the same lanes, so spans are sized proportional to observed
      lane throughput and both lanes finish together.

    The guarded ``tail_x = static wall / adaptive wall`` is the wave-tail
    collapse bought by adaptive planning; with lane rates ``f >> s`` it
    approaches ``(f + s) / 2s``.  Results are bit-identical across arms
    (same seeds, same runs — only dispatch shape differs).

    Parameters
    ----------
    runs:
        Runs per campaign pass (``min_runs == max_runs``).
    repeats:
        Interleaved repetitions per arm; the best time counts.
    seed:
        Campaign master seed.

    Returns
    -------
    dict
        Per-arm wall time and runs/sec plus the guarded ``tail_x``,
        lane delays, ``runs`` and the scenario label.
    """
    import queue as queue_mod
    import threading
    from concurrent.futures import Future

    from repro.experiments.executor import (
        CampaignExecutor,
        ExecutorBackend,
        _execute_task,
    )
    from repro.experiments.scheduler import ThroughputModel

    lane_delays = (0.002, 0.05)
    scenario = MigrationScenario(**_CAMPAIGN_SCENARIO)

    class _LaneBackend(ExecutorBackend):
        """Thread lanes with per-run dispatch delays; round-robin claims."""

        name = "bench-lanes"

        def __init__(self) -> None:
            self._queues = [queue_mod.Queue() for _ in lane_delays]
            self._next = 0
            self._threads = [
                threading.Thread(target=self._serve, args=(i,), daemon=True)
                for i in range(len(lane_delays))
            ]
            for thread in self._threads:
                thread.start()

        @property
        def capacity(self) -> int:
            return len(lane_delays)

        def submit(self, task) -> Future:
            future: Future = Future()
            lane = self._next
            self._next = (self._next + 1) % len(lane_delays)
            self._queues[lane].put((task, future))
            return future

        def _serve(self, lane: int) -> None:
            while True:
                item = self._queues[lane].get()
                if item is None:
                    return
                task, future = item
                n_runs = getattr(task, "run_count", 1)
                started = time.perf_counter()
                try:
                    time.sleep(lane_delays[lane] * n_runs)
                    result = _execute_task(task)
                except BaseException as exc:  # noqa: BLE001 - mirrored to caller
                    future.set_exception(exc)
                else:
                    future.wall_s = time.perf_counter() - started
                    future.worker = f"lane{lane}"
                    future.set_result(result)

        def shutdown(self) -> None:
            for lane_queue in self._queues:
                lane_queue.put(None)
            for thread in self._threads:
                thread.join(timeout=10.0)

    def arm(batch_size, model) -> float:
        executor = CampaignExecutor(
            ScenarioRunner(seed=seed, settings=RunnerSettings(**_BATCH_SETTINGS)),
            batch_size=batch_size,
            **({} if model is None else {"throughput": model}),
        )
        executor._backend = _LaneBackend()
        t0 = time.perf_counter()
        executor.run_campaign([scenario], min_runs=runs, max_runs=runs)
        return time.perf_counter() - t0

    model = ThroughputModel()
    arm(1, model)  # untimed warm-up: the model learns the lane rates
    times = {"static": float("inf"), "adaptive": float("inf")}
    for _ in range(max(1, repeats)):
        times["static"] = min(times["static"], arm(None, None))
        times["adaptive"] = min(times["adaptive"], arm(None, model))
    return {
        "static": {
            "wall_s": times["static"],
            "runs_per_s": runs / times["static"],
        },
        "adaptive": {
            "wall_s": times["adaptive"],
            "runs_per_s": runs / times["adaptive"],
        },
        "tail_x": times["static"] / times["adaptive"],
        "runs": runs,
        "lanes": len(lane_delays),
        "lane_delays_s": list(lane_delays),
        "scenario": scenario.label,
    }


def bench_aggregate(
    runs: int = 10_000, flush_window: int = 256, readings: int = 16, seed: int = 0
) -> dict:
    """Peak coordinator memory: one-shot samples JSON vs streaming columnar.

    A synthetic campaign of ``runs`` runs (two samples each, realistic
    array/scalar shapes) flows through both aggregation paths while
    ``tracemalloc`` tracks the peak:

    * **json** — the classic path: materialise the full sample list,
      then :func:`repro.io.save_samples_json` (which additionally builds
      every record dict and the final dump string);
    * **columnar** — :class:`~repro.experiments.aggregate.ColumnarStore`
      streaming the same sample generator, holding only one flush
      window plus the online moments.

    The guarded ``mem_x = json peak / columnar peak`` is the working-set
    reduction of the streaming path; it grows with campaign size since
    the columnar peak is O(flush window), not O(runs).

    Parameters
    ----------
    runs:
        Synthetic campaign size (two samples per run).
    flush_window:
        Samples per columnar shard.
    readings:
        Per-sample array length.
    seed:
        RNG seed of the synthetic sample stream.

    Returns
    -------
    dict
        Per-arm peak memory (MB) plus the guarded ``mem_x`` and the
        stream's shape parameters.
    """
    import tempfile
    import tracemalloc

    import numpy as np

    from repro.experiments.aggregate import ColumnarStore
    from repro.io import save_samples_json
    from repro.models.features import MigrationSample

    def synth_samples():
        rng = np.random.default_rng(seed)
        for index in range(runs):
            for role in (HostRole.SOURCE, HostRole.TARGET):
                yield MigrationSample(
                    scenario=f"bench/agg/{index}",
                    experiment="CPULOAD-SOURCE",
                    live=False,
                    family="m",
                    role=role,
                    run_index=index,
                    times=np.arange(1, readings + 1, dtype=np.float64),
                    power_w=rng.uniform(40.0, 90.0, readings),
                    phase=rng.integers(0, 4, readings).astype(np.int64),
                    cpu_host_pct=rng.uniform(0.0, 100.0, readings),
                    cpu_vm_pct=rng.uniform(0.0, 100.0, readings),
                    bw_bps=rng.uniform(0.0, 1.18e9, readings),
                    dr_pct=rng.uniform(0.0, 30.0, readings),
                    data_bytes=float(rng.integers(1, 1 << 33)),
                    mem_mb=4096.0,
                    mean_bw_bps=9.0e8,
                    energy_initiation_j=float(rng.uniform(1.0, 10.0)),
                    energy_transfer_j=float(rng.uniform(10.0, 400.0)),
                    energy_activation_j=float(rng.uniform(1.0, 10.0)),
                    downtime_s=float(rng.uniform(0.0, 3.0)),
                )

    def peak_mb_of(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 1e6

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)

        def json_arm() -> None:
            save_samples_json(list(synth_samples()), root / "samples.json")

        def columnar_arm() -> None:
            store = ColumnarStore(root / "columnar", flush_window=flush_window)
            store.extend(synth_samples())
            store.finalize()

        json_peak = peak_mb_of(json_arm)
        columnar_peak = peak_mb_of(columnar_arm)

    return {
        "json": {"peak_mb": json_peak},
        "columnar": {"peak_mb": columnar_peak},
        "mem_x": json_peak / max(columnar_peak, 1e-9),
        "runs": runs,
        "samples": runs * 2,
        "flush_window": flush_window,
        "readings": readings,
    }


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
            "consolidation": bench_consolidation(runs=2 if quick else 3, repeats=reps),
            "batch": bench_batch(runs=12 if quick else 16, repeats=reps),
            "simulator": bench_simulator(
                n_events=10_000 if quick else 50_000, repeats=reps
            ),
            "telemetry": bench_telemetry(
                sim_seconds=100.0 if quick else 300.0, repeats=reps
            ),
            "compute": bench_compute(
                sim_seconds=1000.0 if quick else 2000.0, repeats=reps
            ),
            "sched": bench_scheduler(
                runs=12 if quick else 16, repeats=reps
            ),
            # Not shrunk in quick mode: the memory ratio is guarded on a
            # >= 10k-run campaign, where the O(runs) json peak dwarfs the
            # O(flush window) columnar peak.
            "agg": bench_aggregate(runs=10_000),
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
        f"{'campaign x':>10s} {'consol x':>9s} {'telemetry x':>11s} "
        f"{'batch x':>8s} {'compute x':>9s} "
        f"{'sched x':>8s} {'agg mem x':>9s}"
    )
    lines = [header, "-" * len(header)]
    for payload in payloads:
        # _metric renders "-" for absent metrics, so payloads predating
        # the sched/agg benchmarks still render instead of raising.
        lines.append(
            f"{str(payload.get('revision', '?')):12s} "
            f"{('yes' if payload.get('quick') else 'no'):5s} "
            f"{_metric(payload, 'campaign.batched.runs_per_s'):>8s} "
            f"{_metric(payload, 'simulator.events_per_s', ',.0f'):>12s} "
            f"{_metric(payload, 'campaign.speedup'):>10s} "
            f"{_metric(payload, 'consolidation.speedup'):>9s} "
            f"{_metric(payload, 'telemetry.speedup'):>11s} "
            f"{_metric(payload, 'batch.overhead_x'):>8s} "
            f"{_metric(payload, 'compute.speedup'):>9s} "
            f"{_metric(payload, 'sched.tail_x'):>8s} "
            f"{_metric(payload, 'agg.mem_x'):>9s}"
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
