"""Command-line interface: regenerate any table or figure of the paper.

Examples
--------
::

    wavm3 quickstart                      # one instrumented migration
    wavm3 table 7 --runs 4 --seed 1      # Table VII with 4 runs/scenario
    wavm3 figure fig5 --runs 3           # Fig. 5 panels as ASCII charts
    wavm3 scenarios                      # list the Table IIa campaign

    # distributed: serve a shared spool dir from any number of machines,
    # then run the campaign against it (results bit-identical to serial)
    wavm3 --cache-dir /shared/cache campaign-worker --spool-dir /shared/spool
    wavm3 --cache-dir /shared/cache campaign --spool-dir /shared/spool --stop-workers

    # observability: what is a campaign doing right now?
    wavm3 campaign-status --spool-dir /shared/spool
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]

#: Mirrors :data:`repro.experiments.faults.EXIT_DEGRADED` without importing
#: the experiments package at CLI startup (handlers import lazily).
_EXIT_DEGRADED = 3


def _positive_int(text: str) -> int:
    """Argparse type: an integer >= 1 (a clear error beats downstream misbehaviour)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _batch_size(text: str) -> Optional[int]:
    """Argparse type for --batch-size: 'auto' (None) or an integer >= 1."""
    if text.strip().lower() == "auto":
        return None
    return _positive_int(text)


def _positive_float(text: str) -> float:
    """Argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The wavm3 argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="wavm3",
        description="Reproduce De Maio et al., 'A Workload-Aware Energy "
        "Model for Virtual Machine Migration' (CLUSTER 2015).",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for campaign runs (1 = serial; results are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed run cache directory (re-running an "
        "unchanged campaign then performs zero simulation runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quick = sub.add_parser("quickstart", help="run one instrumented migration")
    quick.add_argument("--non-live", action="store_true", help="suspend/resume migration")
    quick.add_argument("--family", choices=("m", "o"), default="m")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("table_id", choices=("1", "2", "3", "4", "5", "6", "7"))
    table.add_argument("--runs", type=int, default=4, help="runs per scenario")
    table.add_argument("--family", choices=("m", "o"), default="m")

    figure = sub.add_parser("figure", help="regenerate a paper figure (ASCII)")
    figure.add_argument(
        "figure_id", choices=("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
    )
    figure.add_argument("--runs", type=int, default=3, help="runs per scenario")
    figure.add_argument("--family", choices=("m", "o"), default="m")

    camp = sub.add_parser(
        "campaign", help="run a measurement campaign and print energy stats"
    )
    camp.add_argument("--family", choices=("m", "o"), default="m")
    camp.add_argument(
        "--experiment",
        action="append",
        choices=sorted(_EXPERIMENT_FAMILIES),
        help="experiment family to include (repeatable; default: all)",
    )
    camp.add_argument("--runs", type=int, default=3, help="runs per scenario")
    camp.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="cap of the adaptive variance loop (default: same as --runs)",
    )
    camp.add_argument(
        "--batch-size",
        type=_batch_size,
        default=None,
        metavar="N|auto",
        help="runs per dispatched task: an integer (1 = classic per-run "
        "dispatch) or 'auto' to divide each wave across the backend's "
        "capacity (default: auto; results are bit-identical either way)",
    )
    camp.add_argument(
        "--samples",
        default=None,
        metavar="PATH",
        help="also write every kept sample to this samples JSON file "
        "(wavm3-samples/1, streamed one sample at a time)",
    )
    camp.add_argument(
        "--spool-dir",
        default=None,
        help="dispatch runs through the file-based distributed work queue "
        "in this shared directory (requires --cache-dir; serve it with "
        "one or more 'campaign-worker' processes)",
    )
    camp.add_argument(
        "--stale-timeout",
        type=_positive_float,
        default=60.0,
        help="seconds without a heartbeat before a claimed task is "
        "requeued (queue mode only)",
    )
    camp.add_argument(
        "--max-retries",
        type=_positive_int,
        default=1,
        help="total attempt budget per dispatched task: transient failures "
        "are retried with capped exponential backoff until the budget is "
        "exhausted (default 1 = no retries)",
    )
    camp.add_argument(
        "--on-failure",
        choices=("raise", "skip", "quarantine"),
        default="raise",
        help="what to do with a task whose retry budget is exhausted: "
        "'raise' aborts the campaign (default), 'skip' abandons the "
        "task's runs, 'quarantine' also parks its spec in the spool's "
        "quarantine/ directory for inspection; with skip/quarantine the "
        f"campaign completes degraded and exits with code {_EXIT_DEGRADED}",
    )
    camp.add_argument(
        "--run-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="watchdog deadline per run: a task may take at most "
        "run-timeout x (runs in the task) of wall clock before it is "
        "failed instead of hanging (serial/process modes; distributed "
        "workers take their own --run-timeout)",
    )
    camp.add_argument(
        "--campaign-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="coordinator-side deadline for the whole campaign: abort "
        "(with ledger records for every outstanding task) instead of "
        "waiting forever",
    )
    camp.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for drills and tests, e.g. "
        "'seed=7;execute:crash:rate=0.3:max=2' (see docs/robustness.md); "
        "also exported to worker subprocesses via WAVM3_CHAOS",
    )
    camp.add_argument(
        "--stop-workers",
        action="store_true",
        help="tell idle workers to exit when the campaign finishes: write "
        "the spool's stop sentinel (queue mode)",
    )
    camp.add_argument(
        "--gc-spool",
        action="store_true",
        help="instead of running a campaign, garbage-collect abandoned "
        "artifacts (task specs, stale claims, failure records, worker "
        "heartbeats, progress sidecars, the stop sentinel) from "
        "--spool-dir, then exit",
    )
    camp.add_argument(
        "--gc-age",
        type=float,
        default=3600.0,
        help="spool files younger than this many seconds survive "
        "--gc-spool (default 3600; 0 cleans everything)",
    )
    camp.add_argument(
        "--dry-run",
        action="store_true",
        help="with --gc-spool: list what would be removed without "
        "touching anything",
    )

    worker = sub.add_parser(
        "campaign-worker",
        help="serve a distributed campaign: claim run specs from a shared "
        "spool directory, execute them, deposit the results into the "
        "shared run cache",
    )
    worker.add_argument(
        "--spool-dir", required=True,
        help="shared spool directory to serve (requires --cache-dir)",
    )
    worker.add_argument(
        "--poll-interval", type=_positive_float, default=0.5,
        help="seconds between queue scans while idle",
    )
    worker.add_argument(
        "--heartbeat", type=_positive_float, default=5.0,
        help="claim/liveness heartbeat cadence in seconds (keep well "
        "under the coordinator's --stale-timeout)",
    )
    worker.add_argument(
        "--max-tasks", type=_positive_int, default=None,
        help="exit after claiming this many tasks (default: unbounded)",
    )
    worker.add_argument(
        "--idle-exit", type=_positive_float, default=None,
        help="exit after this many seconds without claimable work "
        "(default: serve until the coordinator says stop)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="campaign-unique worker identifier (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--run-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="watchdog deadline per run: abandon a claimed task with a "
        "failure record after run-timeout x (runs in the task) seconds "
        "instead of holding the lease forever",
    )
    worker.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection in this worker (same grammar "
        "as 'campaign --chaos'; overrides WAVM3_CHAOS)",
    )

    status = sub.add_parser(
        "campaign-status",
        help="summarise a running (or finished) distributed campaign: "
        "tasks, claims, failures, worker liveness",
    )
    status.add_argument(
        "--spool-dir", required=True, help="spool directory to inspect"
    )
    status.add_argument(
        "--stale-timeout", type=_positive_float, default=60.0,
        help="claims idle longer than this are reported stale",
    )
    status.add_argument(
        "--worker-fresh", type=_positive_float, default=15.0,
        help="worker heartbeats younger than this count as live",
    )
    status.add_argument(
        "--follow", action="store_true",
        help="keep refreshing the status (live per-worker progress) until "
        "interrupted or --updates refreshes have been printed",
    )
    status.add_argument(
        "--interval", type=_positive_float, default=2.0,
        help="seconds between --follow refreshes (default 2)",
    )
    status.add_argument(
        "--updates", type=_positive_int, default=None,
        help="stop --follow after this many refreshes (default: until ^C)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the perf microbenchmarks and write BENCH_<rev>.json "
        "(campaign batched-vs-events speedup, simulator events/sec, "
        "telemetry samples/sec)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI-friendly sizes (fewer runs, smaller event storm)",
    )
    bench.add_argument(
        "--repeats", type=_positive_int, default=None,
        help="repetitions per benchmark; the best time counts",
    )
    bench.add_argument(
        "--output-dir", default=".",
        help="directory for BENCH_<rev>.json (default: current directory)",
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against a committed baseline JSON and exit non-zero "
        "on regression (see benchmarks/bench_baseline.json)",
    )
    bench.add_argument(
        "--tolerance", type=_positive_float, default=0.25,
        help="allowed relative shortfall vs the baseline's guarded "
        "metrics (default 0.25 = fail below 75%%)",
    )
    bench.add_argument(
        "--history", action="store_true",
        help="instead of benchmarking, render the perf trajectory: a "
        "table of every BENCH_<rev>.json found under --output-dir "
        "(runs/sec and speedups per revision)",
    )

    sub.add_parser("scenarios", help="list the Table IIa campaign")
    return parser


#: ``campaign --experiment`` choices → scenario builders.
_EXPERIMENT_FAMILIES = {
    "cpuload-source": "cpuload_source_scenarios",
    "cpuload-target": "cpuload_target_scenarios",
    "memload-vm": "memload_vm_scenarios",
    "memload-source": "memload_source_scenarios",
    "memload-target": "memload_target_scenarios",
}


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import quick_migration_energy
    from repro.models.features import HostRole

    result = quick_migration_energy(
        live=not args.non_live, seed=args.seed, family=args.family
    )
    tl = result.timeline
    print(f"migration finished: {tl}")
    print(
        f"  initiation {tl.initiation_duration:.1f}s | transfer "
        f"{tl.transfer_duration:.1f}s ({tl.n_rounds} rounds, "
        f"{tl.bytes_total / 2**30:.2f} GiB) | activation "
        f"{tl.activation_duration:.1f}s | downtime {tl.downtime:.2f}s"
    )
    for role in (HostRole.SOURCE, HostRole.TARGET):
        print(f"  {role.value} migration energy: {result.total_energy_j(role) / 1000:.1f} kJ")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.analysis import tables

    if args.table_id == "1":
        print(tables.render_table1())
        return 0
    if args.table_id == "2":
        print(tables.render_table2())
        return 0

    from repro.analysis.comparison import compare_models
    from repro.analysis.validation import fit_wavm3_per_kind, validate_wavm3
    from repro.experiments.design import all_scenarios
    from repro.experiments.runner import ScenarioRunner

    runner = ScenarioRunner(seed=args.seed)
    if args.table_id in ("3", "4"):
        result = runner.run_campaign(
            all_scenarios(args.family), min_runs=args.runs, max_runs=args.runs,
            parallel=args.jobs, cache_dir=args.cache_dir,
        )
        train, _, _ = result.train_test_split()
        models = fit_wavm3_per_kind(train)
        live = args.table_id == "4"
        print(tables.render_table3_4(models["live" if live else "non-live"], live=live))
        return 0
    if args.table_id == "5":
        validation = validate_wavm3(
            seed=args.seed, runs_per_scenario=args.runs,
            jobs=args.jobs, cache_dir=args.cache_dir,
        )
        print(tables.render_table5(validation))
        return 0
    comparison = compare_models(
        seed=args.seed, runs_per_scenario=args.runs, family=args.family,
        jobs=args.jobs, cache_dir=args.cache_dir,
    )
    if args.table_id == "6":
        print(tables.render_table6(comparison))
    else:
        print(tables.render_table7(comparison))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.figures import build_fig2_series, build_figure_panels
    from repro.plotting import plot_figure_series

    if args.figure_id == "fig2":
        data = build_fig2_series(seed=args.seed, family=args.family, runs=args.runs)
        for kind, roles in data.items():
            entries = [(role, series) for role, series in roles.items()]
            print(plot_figure_series(f"Fig. 2 ({kind} migration)", entries))
            print()
        return 0
    panels = build_figure_panels(
        args.figure_id, seed=args.seed, family=args.family, runs=args.runs,
        jobs=args.jobs, cache_dir=args.cache_dir,
    )
    for title, entries in panels.items():
        print(plot_figure_series(title, entries))
        print()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import time

    from repro.experiments import design
    from repro.experiments.executor import CampaignExecutor
    from repro.experiments.runner import ScenarioRunner
    from repro.models.features import HostRole

    if args.gc_spool:
        from repro.errors import ExperimentError
        from repro.experiments.queue_backend import spool_gc

        if args.spool_dir is None:
            raise ExperimentError("--gc-spool requires --spool-dir (the spool to clean)")
        report = spool_gc(args.spool_dir, max_age_s=args.gc_age, dry_run=args.dry_run)
        verb = "would remove" if report["dry_run"] else "removed"
        print(
            f"spool gc [{args.spool_dir}] {verb} {report['removed_total']} files: "
            f"{report['tasks']} task specs, {report['claims']} claims, "
            f"{report['failures']} failure records, "
            f"{report['quarantine']} quarantined specs, {report['workers']} worker "
            f"heartbeats, {report['progress']} progress sidecars"
            + (", stop sentinel" if report["stop"] else "")
        )
        for name in report["files"]:
            print(f"  {name}")
        return 0

    chosen = args.experiment or sorted(_EXPERIMENT_FAMILIES)
    scenarios = []
    for name in chosen:
        scenarios.extend(getattr(design, _EXPERIMENT_FAMILIES[name])(args.family))

    if args.chaos is not None:
        import os

        from repro.experiments.chaos import CHAOS_ENV_VAR, ChaosSchedule, activate

        schedule = ChaosSchedule.from_spec(args.chaos)
        activate(schedule)
        # Worker subprocesses (process backend) inherit the schedule via
        # the environment; distributed workers take their own --chaos.
        os.environ[CHAOS_ENV_VAR] = schedule.describe()

    fault_knobs = dict(
        max_retries=args.max_retries,
        on_failure=args.on_failure,
        run_timeout=args.run_timeout,
        campaign_timeout=args.campaign_timeout,
    )
    if args.spool_dir is not None:
        executor = CampaignExecutor(
            ScenarioRunner(seed=args.seed),
            backend="queue",
            cache_dir=args.cache_dir,
            spool_dir=args.spool_dir,
            batch_size=args.batch_size,
            queue_options={
                "stale_timeout": args.stale_timeout,
                "stop_workers_on_shutdown": args.stop_workers,
            },
            **fault_knobs,
        )
    else:
        executor = CampaignExecutor(
            ScenarioRunner(seed=args.seed),
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            batch_size=args.batch_size,
            **fault_knobs,
        )
    started = time.perf_counter()
    result = executor.run_campaign(
        scenarios, min_runs=args.runs, max_runs=args.max_runs or args.runs
    )
    elapsed = time.perf_counter() - started

    print(f"{'scenario':42s} {'runs':>4s} {'source energy [kJ]':>20s}")
    for sr in result.scenario_results:
        mean = sr.mean_energy_j(HostRole.SOURCE) / 1000
        std = sr.std_energy_j(HostRole.SOURCE) / 1000
        print(f"{sr.scenario.label:42s} {sr.n_runs:4d} {mean:11.2f} ± {std:.2f}")
    stats = executor.stats
    print(
        f"\n{stats.scenarios} scenarios, {stats.runs_kept} runs kept "
        f"({stats.runs_executed} executed, {stats.runs_cached} from cache, "
        f"{stats.runs_discarded} discarded) in {elapsed:.1f}s "
        f"[backend={executor.backend}, jobs={executor.jobs}]"
    )
    qstats = executor.queue_stats
    if qstats is not None:
        print(
            f"{executor.backend}: {qstats.tasks_submitted} tasks dispatched, "
            f"{qstats.tasks_requeued} requeued, "
            f"{qstats.tasks_resubmitted} resubmitted, "
            f"{qstats.corrupt_results} corrupt results discarded"
        )
    if executor.cache is not None:
        counters = executor.cache.counters()
        print(
            f"cache: {counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['bytes_read']:,} B read, "
            f"{counters['bytes_written']:,} B written"
        )
    print(executor.ledger.summary_line())
    if stats.degraded:
        print(
            f"campaign DEGRADED: {stats.tasks_quarantined} tasks quarantined, "
            f"{stats.runs_abandoned} runs abandoned, "
            f"{stats.scenarios_dropped} scenarios dropped "
            f"[exit {_EXIT_DEGRADED}]"
        )
    events = executor.progress_events
    if events:
        workers = sorted({e.worker for e in events})
        total_samples = sum(e.samples for e in events)
        total_wall = sum(e.wall_s for e in events)
        rate = total_samples / total_wall if total_wall > 0 else 0.0
        print(
            f"progress: {len(events)} runs reported by {len(workers)} "
            f"worker{'s' if len(workers) != 1 else ''}, "
            f"{total_samples:,} samples at {rate:,.0f} samples/s"
        )
    if args.samples is not None:
        from repro.io import save_samples_json

        count = save_samples_json(result.iter_samples(), args.samples)
        print(f"samples: {count} samples (json) -> {args.samples}")
    return _EXIT_DEGRADED if stats.degraded else 0


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from repro.errors import ExperimentError

    if args.chaos is not None:
        from repro.experiments.chaos import ChaosSchedule, activate

        activate(ChaosSchedule.from_spec(args.chaos))
    from repro.experiments.queue_backend import run_worker

    if args.cache_dir is None:
        raise ExperimentError(
            "campaign-worker --spool-dir requires --cache-dir (the shared run cache)"
        )
    stats = run_worker(
        args.spool_dir,
        args.cache_dir,
        poll_interval=args.poll_interval,
        heartbeat_s=args.heartbeat,
        max_tasks=args.max_tasks,
        idle_exit_s=args.idle_exit,
        worker_id=args.worker_id,
        run_timeout=args.run_timeout,
    )
    print(
        f"worker done: {stats.claimed} claimed, {stats.executed} executed, "
        f"{stats.cached} from cache, {stats.failed} failed"
    )
    return 0 if stats.failed == 0 else 1


def _fetch_campaign_status(args: argparse.Namespace) -> dict:
    from repro.experiments.queue_backend import spool_status

    return spool_status(
        args.spool_dir,
        stale_timeout=args.stale_timeout,
        worker_fresh_s=args.worker_fresh,
    )


def _render_campaign_status(status: dict, origin: str) -> None:
    print(f"campaign status [{status['backend']}] {origin}")
    print(
        f"  tasks: {status['tasks_open']} open, "
        f"{status['tasks_leased']} claimed ({status['leases_stale']} stale)"
        + f", {status['tasks_failed']} failed"
        + (
            f", {status['tasks_quarantined']} quarantined"
            if status.get("tasks_quarantined")
            else ""
        )
    )
    workers = status.get("workers", [])
    print(
        f"  workers: {status['workers_live']} live / {len(workers)} seen"
        + (" [stopping]" if status.get("stopping") else "")
    )
    for entry in workers:
        liveness = "live" if entry["live"] else "stale"
        print(f"    {entry['worker']:32s} {liveness:5s} last seen {entry['age_s']:.1f}s ago")
    progress = status.get("progress", [])
    if progress:
        print(f"  progress: {status.get('progress_events', len(progress))} events")
        for entry in progress:
            print(
                f"    {entry['worker']:32s} {entry['runs_completed']:4d} runs  "
                f"{entry['samples_per_s']:>12,.0f} samples/s  "
                f"last {entry['last_task']} ({entry['age_s']:.1f}s ago)"
            )
    for failure in status.get("failures", []):
        print(f"  FAILED {failure['task_id']} on {failure['worker']}: {failure['error']}")
    for task_id in status.get("quarantined", []):
        print(f"  QUARANTINED {task_id}")


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import time

    updates = 0
    status: Optional[dict] = None
    # ^C must exit the follow loop cleanly wherever it lands — during the
    # sleep *or* mid-fetch (spool scan), which is where a slow
    # poll spends most of its time.  The exit code reflects the last
    # rendered status (0 when interrupted before the first fetch).
    try:
        while True:
            status = _fetch_campaign_status(args)
            if args.follow and updates:
                print()  # blank line between refreshes (log-friendly "live" view)
            _render_campaign_status(status, args.spool_dir)
            updates += 1
            if not args.follow or (args.updates is not None and updates >= args.updates):
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0 if status is None or status["tasks_failed"] == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import (
        check_regression,
        collect_bench_history,
        render_bench_history,
        run_benchmarks,
        write_bench_json,
    )

    if args.history:
        print(render_bench_history(collect_bench_history(args.output_dir)))
        return 0
    if args.tolerance >= 1.0:
        raise SystemExit("--tolerance must be below 1.0")
    payload = run_benchmarks(quick=args.quick, repeats=args.repeats)
    results = payload["results"]
    campaign = results["campaign"]
    print(f"wavm3 bench @ {payload['revision']} (quick={payload['quick']})")
    print(
        f"  campaign [{campaign['scenario']} x{campaign['runs']}]: "
        f"batched {campaign['batched']['wall_s']:.2f}s "
        f"({campaign['batched']['runs_per_s']:.2f} runs/s, "
        f"{campaign['batched']['samples_per_s']:,.0f} samples/s) | "
        f"events {campaign['events']['wall_s']:.2f}s | "
        f"speedup {campaign['speedup']:.2f}x"
    )
    print(
        f"  simulator: {results['simulator']['events_per_s']:,.0f} events/s"
    )
    print(
        f"  telemetry: batched "
        f"{results['telemetry']['batched']['samples_per_s']:,.0f} samples/s | "
        f"events {results['telemetry']['events']['samples_per_s']:,.0f} | "
        f"speedup {results['telemetry']['speedup']:.2f}x"
    )
    path = write_bench_json(payload, args.output_dir)
    print(f"wrote {path}")
    if args.check is not None:
        import pathlib

        baseline = json.loads(pathlib.Path(args.check).read_text(encoding="utf-8"))
        failures = check_regression(payload, baseline, tolerance=args.tolerance)
        if failures:
            for line in failures:
                print(f"PERF REGRESSION {line}")
            return 1
        print(f"perf-smoke ok: within {args.tolerance:.0%} of {args.check}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.experiments.design import all_scenarios

    for scenario in all_scenarios("m"):
        sweep = (
            f"DR={scenario.dirty_percent:.0f}%"
            if scenario.dirty_percent is not None
            else f"{scenario.load_vm_count} load VMs on {scenario.load_on}"
        )
        print(f"{scenario.label:42s} {scenario.kind_name:8s} {sweep}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (console script ``wavm3``)."""
    args = build_parser().parse_args(argv)
    handlers = {
        "quickstart": _cmd_quickstart,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "campaign": _cmd_campaign,
        "campaign-worker": _cmd_campaign_worker,
        "campaign-status": _cmd_campaign_status,
        "bench": _cmd_bench,
        "scenarios": _cmd_scenarios,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output truncated by a downstream pager (`wavm3 … | head`): normal.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
