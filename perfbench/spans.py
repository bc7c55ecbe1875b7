"""Span recorder for the traced benchmark run, and per-layer self-time arithmetic.

The program under test has no tracing of its own, so the benchmark records
spans from outside: :meth:`Tracer.install` replaces the public entry points
listed in :data:`SPAN_POINTS` with thin wrappers that time each call.  A span
keeps its name, start, end, parent span and the run id (``label#index``) of
the innermost enclosing run.  Spans stay in memory (flat arrays, about 40
bytes each) and are written out once the process is done with them:

* the benchmark process collects its own spans directly;
* a queue worker (``perfbench/worker.py``) installs its own tracer and
  writes its spans to ``<trace_dir>/spans-<pid>-<n>.npz`` when it exits.

A layer's self time is its spans' duration minus the part of each span that
its child spans cover (:func:`self_times`), so a layer's number never counts
the layers it calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Marker of a span without a parent.
NO_PARENT = -1


def _run_of_run_once(args, kwargs) -> str:
    scenario = args[1] if len(args) > 1 else kwargs["scenario"]
    index = args[2] if len(args) > 2 else kwargs.get("run_index", 0)
    return f"{scenario.label}#{index}"


def _run_of_bank(args, kwargs) -> str:
    bank = args[0]
    return f"{bank.scenario.label}#{','.join(map(str, bank.indices))}"


def _count_bank_runs(tracer: "Tracer", args, kwargs, before, result) -> None:
    tracer.count("seedbank.runs", len(args[0].indices))


def _sim_seconds(tracer: "Tracer", args, kwargs, before, result) -> None:
    duration = args[1] if len(args) > 1 else kwargs["duration"]
    tracer.count("engine.sim_s", float(duration))


def _cache_bytes_read(args) -> int:
    return args[0].bytes_read


def _cache_get_outcome(tracer: "Tracer", args, kwargs, before, result) -> None:
    tracer.count("cache.misses" if result is None else "cache.hits", 1)
    tracer.count("cache.bytes_read", args[0].bytes_read - before)


def _cache_bytes_written(args) -> int:
    return args[0].bytes_written


def _cache_put_outcome(tracer: "Tracer", args, kwargs, before, result) -> None:
    tracer.count("cache.bytes_written", args[0].bytes_written - before)


def _keep_executor(tracer: "Tracer", args, kwargs, before, result) -> None:
    tracer.executors.append(args[0])


@dataclass(frozen=True)
class SpanPoint:
    """One public entry point the traced run wraps.

    ``run_of`` marks a run boundary: it names the run the call executes,
    and every span inside inherits that run id.  ``before``/``after``
    record counters around the call (``before`` reads a value from the
    arguments, ``after`` receives it together with the result).
    """

    module: str
    qualname: str
    span: str
    run_of: Optional[Callable] = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None


#: Layer boundaries of one paper campaign, by module.  The span name's
#: prefix is the layer; :func:`layer_metrics` turns the spans into the
#: per-layer metrics named in ``BENCHMARK.json``.
SPAN_POINTS: tuple[SpanPoint, ...] = (
    SpanPoint("repro.experiments.runner", "ScenarioRunner.run_campaign", "campaign"),
    SpanPoint("repro.experiments.executor", "CampaignExecutor.run_campaign",
              "executor.campaign", after=_keep_executor),
    SpanPoint("repro.experiments.executor", "SerialBackend.submit", "executor.submit"),
    SpanPoint("repro.experiments.queue_backend", "QueueBackend.submit", "executor.submit"),
    SpanPoint("repro.experiments.executor", "SerialBackend.wait", "executor.wait"),
    SpanPoint("repro.experiments.queue_backend", "QueueBackend.wait", "executor.wait"),
    SpanPoint("repro.experiments.runner", "ScenarioRunner.run_batch", "runner.batch"),
    SpanPoint("repro.experiments.runner", "ScenarioRunner.run_once", "runner.run",
              run_of=_run_of_run_once),
    SpanPoint("repro.experiments.seedbank", "SeedBank.execute", "seedbank.execute",
              run_of=_run_of_bank, after=_count_bank_runs),
    SpanPoint("repro.experiments.runner", "ScenarioRunner.build_testbed", "testbed.build"),
    SpanPoint("repro.simulator.engine", "Simulator.run_for", "engine.run_for",
              after=_sim_seconds),
    SpanPoint("repro.simulator.sampling", "PeriodicSampler.advance_to", "sampling.advance"),
    SpanPoint("repro.simulator.noise", "hash_normal_unit", "noise.hash"),
    SpanPoint("repro.simulator.noise", "hash_normal_unit_fill", "noise.hash"),
    SpanPoint("repro.simulator.noise", "hash_normal_unit_fill_bank", "noise.hash"),
    SpanPoint("repro.simulator.noise", "ou_like_noise_values", "noise.hash"),
    SpanPoint("repro.simulator.kernels", "HostKernel.power_block", "kernels.power_block"),
    SpanPoint("repro.simulator.kernels", "power_block_bank", "kernels.power_block"),
    SpanPoint("repro.simulator.kernels", "VmKernel.cpu_percent_block", "kernels.cpu_block"),
    SpanPoint("repro.simulator.kernels", "cpu_percent_block_bank", "kernels.cpu_block"),
    SpanPoint("repro.cluster.host", "PhysicalHost.instantaneous_power_values",
              "host.power_values"),
    SpanPoint("repro.hypervisor.memory", "VmMemory.advance", "memory.advance"),
    SpanPoint("repro.experiments.executor", "RunCache.put", "cache.put",
              before=_cache_bytes_written, after=_cache_put_outcome),
    SpanPoint("repro.experiments.executor", "RunCache.get", "cache.get",
              before=_cache_bytes_read, after=_cache_get_outcome),
    SpanPoint("repro.io", "dump_run_result_bytes", "io.dump"),
    SpanPoint("repro.io", "load_run_result_bytes", "io.load"),
    SpanPoint("repro.analysis.comparison", "compare_models", "analysis.compare"),
    SpanPoint("repro.experiments.results", "ExperimentResult.train_test_split",
              "analysis.split"),
    SpanPoint("repro.experiments.results", "RunResult.sample_for", "analysis.sample_for"),
    SpanPoint("repro.models.wavm3", "Wavm3Model.fit", "models.fit.WAVM3"),
    SpanPoint("repro.models.huang", "HuangModel.fit", "models.fit.HUANG"),
    SpanPoint("repro.models.liu", "LiuModel.fit", "models.fit.LIU"),
    SpanPoint("repro.models.strunk", "StrunkModel.fit", "models.fit.STRUNK"),
    SpanPoint("repro.models.base", "MigrationEnergyModel.predict_energies", "models.predict"),
    SpanPoint("repro.analysis.tables", "render_table7", "analysis.render"),
)


@dataclass
class SpanSet:
    """The spans of one process, as parallel arrays (ids are per process)."""

    ids: np.ndarray
    parents: np.ndarray
    names: np.ndarray      # index into ``name_table``
    runs: np.ndarray       # index into ``run_table``; -1 outside any run
    starts: np.ndarray
    ends: np.ndarray
    name_table: list
    run_table: list
    counters: dict

    def __len__(self) -> int:
        return int(self.ids.size)


class Tracer:
    """Records spans around :data:`SPAN_POINTS` while installed.

    Only the thread that installed the tracer records; calls on other
    threads pass straight through, so span nesting is always well formed.
    """

    def __init__(self, trace_dir: Optional[pathlib.Path] = None, points=SPAN_POINTS) -> None:
        self.trace_dir = pathlib.Path(trace_dir) if trace_dir is not None else None
        self.points = tuple(points)
        self.executors: list = []
        #: Span points that do not exist in the program being measured.
        self.missing: list[str] = []
        self._thread = threading.get_ident()
        self._ids = itertools.count()
        self._flushes = 0
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    # -- recording -------------------------------------------------------
    def _reset(self) -> None:
        self._stack: list[int] = []
        self._run = -1
        self._names: dict[str, int] = {}
        self._run_index: dict[str, int] = {}
        self._sid = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._runcol = array("i")
        self._start = array("d")
        self._end = array("d")
        self.counters: dict[str, float] = defaultdict(float)

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a named counter recorded beside the spans."""
        self.counters[name] += value

    def _name_id(self, name: str) -> int:
        index = self._names.get(name)
        if index is None:
            index = self._names[name] = len(self._names)
        return index

    def _wrap(self, fn, point: SpanPoint):
        tracer = self
        name = point.span
        run_of, before, after = point.run_of, point.before, point.after
        perf = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != tracer._thread or not tracer._patches:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else NO_PARENT
            outer_run = tracer._run
            if run_of is not None:
                label = run_of(args, kwargs)
                run = tracer._run_index.get(label)
                if run is None:
                    run = tracer._run_index[label] = len(tracer._run_index)
                tracer._run = run
            seen = before(args) if before is not None else None
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._sid.append(sid)
                tracer._parent.append(parent)
                tracer._name.append(tracer._name_id(name))
                tracer._runcol.append(tracer._run)
                tracer._start.append(start)
                tracer._end.append(end)
                tracer._run = outer_run
            if after is not None:
                after(tracer, args, kwargs, seen, result)
            return result

        return traced

    # -- install / uninstall ---------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every span point; module-level functions are replaced in
        every loaded ``repro`` module that imported them by name."""
        resolved = []
        for point in self.points:
            owner_path, _, attr = point.qualname.rpartition(".")
            try:
                owner = importlib.import_module(point.module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                resolved.append((point, owner, attr, vars(owner)[attr]))
            except (ImportError, AttributeError, KeyError):
                # A later refactor may move or delete an entry point.  The
                # traced run then fails its check if that leaves a layer its
                # workload needs unrecorded (``workloads.unrecorded_layers``).
                self.missing.append(f"{point.module}:{point.qualname}")
        # Patch only once every module is imported, so each by-name import
        # of a wrapped function is found (and later restored).
        modules = [m for n, m in sys.modules.items() if m is not None and n.startswith("repro")]
        for point, owner, attr, original in resolved:
            wrapped = self._wrap(original, point)
            self._patch(owner, attr, original, wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                if module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
        return self

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped entry point (safe to call twice)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        thread, self._thread = self._thread, None
        try:
            yield self
        finally:
            self._thread = thread

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------
    def take(self) -> SpanSet:
        """This process's spans so far; the recorder starts empty again."""
        taken = SpanSet(
            ids=np.frombuffer(self._sid, dtype=np.int64).copy(),
            parents=np.frombuffer(self._parent, dtype=np.int64).copy(),
            names=np.frombuffer(self._name, dtype=np.int32).copy(),
            runs=np.frombuffer(self._runcol, dtype=np.int32).copy(),
            starts=np.frombuffer(self._start, dtype=np.float64).copy(),
            ends=np.frombuffer(self._end, dtype=np.float64).copy(),
            name_table=list(self._names),
            run_table=list(self._run_index),
            counters=dict(self.counters),
        )
        stack, run = self._stack, self._run
        self._reset()
        self._stack, self._run = stack, run
        return taken

    def flush(self) -> Optional[pathlib.Path]:
        """Write and drop the spans recorded so far (queue workers)."""
        if self.trace_dir is None or (not len(self._sid) and not self.counters):
            return None
        taken = self.take()
        path = self.trace_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        self._flushes += 1
        save_spans(taken, path)
        return path


def save_spans(spans: SpanSet, path: pathlib.Path) -> None:
    """Write one span set as an ``.npz`` (atomic rename)."""
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez(
        tmp,
        ids=spans.ids, parents=spans.parents, names=spans.names, runs=spans.runs,
        starts=spans.starts, ends=spans.ends,
        meta=np.array(json.dumps({
            "name_table": spans.name_table,
            "run_table": spans.run_table,
            "counters": spans.counters,
        })),
    )
    tmp.replace(path)


def load_spans(path: pathlib.Path) -> SpanSet:
    """Read a span set written by :func:`save_spans`."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        return SpanSet(
            ids=data["ids"], parents=data["parents"], names=data["names"],
            runs=data["runs"], starts=data["starts"], ends=data["ends"],
            name_table=meta["name_table"], run_table=meta["run_table"],
            counters=meta["counters"],
        )


def collect_spans(trace_dir: pathlib.Path) -> list[SpanSet]:
    """Every span set the worker processes wrote into ``trace_dir``."""
    return [load_spans(path) for path in sorted(trace_dir.glob("spans-*.npz"))]


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------
def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Children may overlap each other (a span recorded on another thread, a
    clock step) or stick out of their parent; neither may be counted twice
    nor outside the parent.
    """
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        elif end > cur_hi:
            cur_hi = end
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: SpanSet) -> np.ndarray:
    """Per span: its duration minus the part its child spans cover."""
    durations = spans.ends - spans.starts
    result = durations.copy()
    if not len(spans):
        return result
    position = {int(sid): i for i, sid in enumerate(spans.ids.tolist())}
    children: dict[int, list[int]] = defaultdict(list)
    for i, parent in enumerate(spans.parents.tolist()):
        owner = position.get(parent)
        if owner is not None:
            children[owner].append(i)
    starts, ends = spans.starts.tolist(), spans.ends.tolist()
    for owner, kids in children.items():
        result[owner] -= covered_length(
            [(starts[k], ends[k]) for k in kids], starts[owner], ends[owner]
        )
    return result


def recorded_names(span_sets) -> set[str]:
    """The span names that occur at least once in ``span_sets``."""
    return {
        spans.name_table[index]
        for spans in span_sets
        for index in np.unique(spans.names).tolist()
    }


def layer_totals(span_sets) -> dict:
    """Self seconds, inclusive seconds and call count per span name."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
    )
    for spans in span_sets:
        if not len(spans):
            continue
        own = self_times(spans)
        durations = spans.ends - spans.starts
        for index, name in enumerate(spans.name_table):
            mask = spans.names == index
            entry = totals[name]
            entry["self_s"] += float(own[mask].sum())
            entry["incl_s"] += float(durations[mask].sum())
            entry["calls"] += int(mask.sum())
    return dict(totals)


def run_walls(span_sets) -> list[float]:
    """Wall seconds per executed run.

    A run is a ``runner.run`` span; a ``seedbank.execute`` span drives
    several runs in lockstep, so it counts as that many runs of equal
    share.  ``runner.run`` spans nested in a bank never occur (the bank
    does not call ``run_once``).
    """
    walls: list[float] = []
    for spans in span_sets:
        if not len(spans):
            continue
        table = {name: i for i, name in enumerate(spans.name_table)}
        durations = spans.ends - spans.starts
        if "runner.run" in table:
            walls.extend(durations[spans.names == table["runner.run"]].tolist())
        if "seedbank.execute" in table:
            for i in np.flatnonzero(spans.names == table["seedbank.execute"]).tolist():
                label = spans.run_table[spans.runs[i]]
                share = len(label.rpartition("#")[2].split(","))
                walls.extend([float(durations[i]) / share] * share)
    return walls


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def layer_metrics(span_sets, campaigns: int, campaign_wall_s: float, lanes: int,
                  executors) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json``, per campaign.

    ``span_sets`` hold every process's spans of ``campaigns`` traced
    campaigns whose ``run_campaign`` calls took ``campaign_wall_s`` in
    total; ``executors`` are the ``CampaignExecutor`` objects they used.
    Times are self times in milliseconds unless the name says otherwise.
    """
    totals = layer_totals(span_sets)
    counters: dict[str, float] = defaultdict(float)
    for spans in span_sets:
        for name, value in spans.counters.items():
            counters[name] += value
    per = 1.0 / max(campaigns, 1)

    def self_ms(*names: str) -> float:
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names) * 1e3 * per

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) * per

    walls = run_walls(span_sets)
    run_for_s = totals.get("engine.run_for", {}).get("incl_s", 0.0)
    queue = [e.queue_stats for e in executors if e.queue_stats is not None]
    metrics = {
        "runner.run_wall_ms.p50": _percentile(walls, 50) * 1e3,
        "runner.run_wall_ms.p95": _percentile(walls, 95) * 1e3,
        "testbed.build_ms": self_ms("testbed.build"),
        "testbed.builds": calls("testbed.build"),
        "engine.run_for_ms": self_ms("engine.run_for"),
        "engine.run_for_calls": calls("engine.run_for"),
        "engine.sim_s_per_wall_s": counters["engine.sim_s"] / run_for_s if run_for_s else 0.0,
        "sampling.advance_ms": self_ms("sampling.advance"),
        "noise.hash_ms": self_ms("noise.hash"),
        "noise.calls": calls("noise.hash"),
        "kernels.power_block_ms": self_ms("kernels.power_block"),
        "kernels.cpu_block_ms": self_ms("kernels.cpu_block"),
        "host.power_values_ms": self_ms("host.power_values"),
        "memory.advance_ms": self_ms("memory.advance"),
        "memory.advance_calls": calls("memory.advance"),
        "seedbank.execute_ms": self_ms("seedbank.execute"),
        "seedbank.runs": counters["seedbank.runs"] * per,
        "executor.tasks": calls("executor.submit"),
        "executor.wait_ms": totals.get("executor.wait", {}).get("incl_s", 0.0) * 1e3 * per,
        "executor.lane_busy_ratio": (
            sum(walls) / (lanes * campaign_wall_s) if campaign_wall_s else 0.0
        ),
        "cache.put_ms": self_ms("cache.put"),
        "cache.get_ms": self_ms("cache.get"),
        "cache.hits": counters["cache.hits"] * per,
        "cache.misses": counters["cache.misses"] * per,
        "cache.bytes_written": counters["cache.bytes_written"] * per,
        "cache.bytes_read": counters["cache.bytes_read"] * per,
        "io.dump_ms": self_ms("io.dump"),
        "io.load_ms": self_ms("io.load"),
        "queue.tasks_dispatched": sum(q.tasks_submitted for q in queue) * per,
        "queue.requeued": sum(q.tasks_requeued for q in queue) * per,
        "analysis.split_ms": self_ms("analysis.split"),
        "analysis.sample_for_ms": self_ms("analysis.sample_for"),
        "models.predict_ms": self_ms("models.predict"),
        "analysis.render_ms": self_ms("analysis.render"),
        "trace.spans": sum(len(s) for s in span_sets) * per,
    }
    for model in ("WAVM3", "HUANG", "LIU", "STRUNK"):
        metrics[f"models.fit_ms.{model}"] = self_ms(f"models.fit.{model}")
    return metrics
