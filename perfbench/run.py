"""Paper-campaign benchmark: time-to-Table VII and runs/s on the Table IIa workload.

Run from the repository root::

    python3 perfbench/run.py --workload paper-serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload paper-queue2 --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One timed campaign is the paper's Section V-B campaign on the 42 Table IIa
m-pair scenarios (``min_runs=10``, ``max_runs=16``, variance rule on)
followed by ``compare_models`` and ``render_table7``; a run repeats it for
about ``--seconds`` seconds and reports medians.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` spends half the time untraced and half
with span recorders installed, and prints the per-layer metrics and the
tracing overhead.  ``--workload all`` runs every workload in its own process
and also requires all of them to produce the same samples digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full payload (``payload: {...}``) with the environment, run counts,
Table VII claim margins and the samples digest.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("paper-serial", "paper-warm", "paper-queue2")
PAYLOAD_PREFIX = "payload: "
#: Imports timed per run (this process's own plus fresh interpreters);
#: ``setup_s`` takes their median, as one import varies with the host.
IMPORT_REPEATS = 5
#: What a fresh interpreter runs to time the imports this process made.
IMPORT_PROBE = (
    "import time; began = time.perf_counter(); import sys; sys.path[:0] = sys.argv[1:]; "
    "import spans, workloads; print(time.perf_counter() - began)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="campaign master seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def measure_workload(args, work: pathlib.Path, protocol=None) -> int:
    """Measure one workload; ``protocol`` defaults to the paper's (tests pass a smaller one)."""
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    import_s = time.perf_counter() - _STARTED
    import_s = statistics.median([import_s] + [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
            capture_output=True, text=True, check=True,
        ).stdout)
        for _ in range(IMPORT_REPEATS - 1)
    ])

    protocol = protocol or workloads.Protocol()
    trace_dir = work / "trace"
    trace_dir.mkdir()
    checker = workloads.Checker(args.seed, work / "samples.json")
    workload = workloads.WORKLOADS[args.workload](protocol, args.seed, work)
    try:
        began = time.perf_counter()
        workload.setup()
        once_s = time.perf_counter() - began
        if workload.setup_result is not None:
            checker.adopt(workload.setup_result)
            workload.setup_result = None
        if args.trace:
            untraced = workloads.measure(workload, checker, args.seconds / 2)
            tracer = spans.Tracer(trace_dir).install()
            workload.trace_dir = trace_dir
            try:
                traced = workloads.measure(
                    workload, checker, args.seconds / 2, quiet=tracer.paused
                )
            finally:
                tracer.uninstall()
            span_sets = [tracer.take()] + spans.collect_spans(trace_dir)
            records = untraced + traced
        else:
            records = workloads.measure(workload, checker, args.seconds)
    finally:
        workload.close()

    ok = [r for r in records if r.error is None]
    attempted = sum(r.attempted for r in records)
    # Untimed: one reference run per scenario recomputed in-process.
    reference_ok = checker.reference is None or checker.verify()
    failed = sum(r.failed for r in records) if reference_ok else attempted
    unrecorded = []
    counts = {
        "runner.runs_executed": _median(r.runs_executed for r in ok),
        "runner.runs_kept": _median(r.runs_kept for r in ok),
        "sampling.samples": _median(r.samples for r in ok),
    }
    if args.trace:
        good_traced = [r for r in traced if r.error is None]
        unrecorded = workloads.unrecorded_layers(workload, spans.recorded_names(span_sets))
        metrics = spans.layer_metrics(
            span_sets,
            campaigns=len(traced),
            campaign_wall_s=sum(r.campaign_s for r in traced),
            lanes=workload.lanes,
            executors=tracer.executors,
        )
        kept = _median(r.runs_kept for r in good_traced)
        obtained = _median(r.runs_executed + r.runs_cached for r in good_traced)
        untraced_s = _median(r.table7_s for r in untraced if r.error is None)
        traced_s = _median(r.table7_s for r in good_traced)
        metrics.update({
            "runner.runs_executed": _median(r.runs_executed for r in good_traced),
            "runner.runs_kept": kept,
            "runner.keep_ratio": kept / obtained if obtained else 0.0,
            "sampling.samples": _median(r.samples for r in good_traced),
            "migration.rounds": _median(r.rounds for r in good_traced),
            "migration.bytes": _median(r.bytes_sent for r in good_traced),
            "trace.untraced_table7_s": untraced_s,
            "trace.traced_table7_s": traced_s,
            "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
        })
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "table7_s": _median(r.table7_s for r in ok),
            "runs_per_s": _median(r.runs_kept / r.campaign_s for r in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s + once_s + _median(r.prepare_s for r in records),
        }
        units = END_TO_END_UNITS
    digests = {r.digest for r in ok}
    correct = bool(ok) and failed == 0 and len(digests) == 1 and not unrecorded
    payload = {
        "schema": "perfbench-payload/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "protocol": {
            "family": protocol.family,
            "scenarios": len(protocol.scenarios()),
            "min_runs": protocol.min_runs,
            "max_runs": protocol.max_runs,
            "training_fraction": workloads.TRAINING_FRACTION,
        },
        "env": workloads.environment_of(ROOT),
        "options": workload.options(),
        "campaigns": len(records),
        "errors": sorted({r.error for r in records if r.error is not None}),
        "counts": counts,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "claims": ok[-1].claims if ok else {},
        "digest": ok[0].digest if len(digests) == 1 else None,
        "reference_verified": reference_ok,
        "table7_s": [r.table7_s for r in ok],
        "missing_span_points": tracer.missing if args.trace else [],
        "unrecorded_layers": unrecorded,
        "metrics": metrics,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} campaign(s), {attempted} runs checked, {failed} failed")
    if unrecorded:
        print(f"  layers without spans (entry point renamed or bypassed?): {unrecorded}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    print(PAYLOAD_PREFIX + json.dumps(payload, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; their samples digests must agree."""
    metrics, digests = {}, {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        payload = json.loads(next(
            line[len(PAYLOAD_PREFIX):] for line in lines if line.startswith(PAYLOAD_PREFIX)
        ))
        digests[name] = payload["digest"]
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    agree = len(set(digests.values())) == 1 and None not in digests.values()
    print(f"samples digests {'agree' if agree else 'DISAGREE'}: "
          + ", ".join(f"{k}={str(v)[:12]}" for k, v in digests.items()))
    print(json.dumps({
        "correct": bool(correct and agree),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


#: Units of the end-to-end metrics (``--trace 0``).
END_TO_END_UNITS = {
    "table7_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Units of the per-layer metrics (``--trace 1``).
PER_LAYER_UNITS = {
    "runner.run_wall_ms.p50": "ms",
    "runner.run_wall_ms.p95": "ms",
    "runner.runs_executed": "count",
    "runner.runs_kept": "count",
    "runner.keep_ratio": "ratio",
    "testbed.build_ms": "ms",
    "testbed.builds": "count",
    "engine.run_for_ms": "ms",
    "engine.run_for_calls": "count",
    "engine.sim_s_per_wall_s": "s/s",
    "sampling.advance_ms": "ms",
    "sampling.samples": "count",
    "noise.hash_ms": "ms",
    "noise.calls": "count",
    "kernels.power_block_ms": "ms",
    "kernels.cpu_block_ms": "ms",
    "host.power_values_ms": "ms",
    "memory.advance_ms": "ms",
    "memory.advance_calls": "count",
    "migration.rounds": "count",
    "migration.bytes": "bytes",
    "seedbank.execute_ms": "ms",
    "seedbank.runs": "count",
    "executor.tasks": "count",
    "executor.wait_ms": "ms",
    "executor.lane_busy_ratio": "ratio",
    "cache.put_ms": "ms",
    "cache.get_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_written": "bytes",
    "cache.bytes_read": "bytes",
    "io.dump_ms": "ms",
    "io.load_ms": "ms",
    "queue.tasks_dispatched": "count",
    "queue.requeued": "count",
    "analysis.split_ms": "ms",
    "analysis.sample_for_ms": "ms",
    "models.fit_ms.WAVM3": "ms",
    "models.fit_ms.HUANG": "ms",
    "models.fit_ms.LIU": "ms",
    "models.fit_ms.STRUNK": "ms",
    "models.predict_ms": "ms",
    "analysis.render_ms": "ms",
    "trace.spans": "count",
    "trace.untraced_table7_s": "s",
    "trace.traced_table7_s": "s",
    "trace.overhead_ratio": "ratio",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
