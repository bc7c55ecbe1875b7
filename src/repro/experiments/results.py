"""Result containers: run → scenario → experiment.

* :class:`RunResult` — one instrumented migration run; converts itself to
  the :class:`~repro.models.features.MigrationSample` format (per host
  role) consumed by every energy model;
* :class:`ScenarioResult` — the ≥ 10 repetitions of one scenario, with
  energy statistics and the run-averaged, migration-aligned power series
  used to draw the paper's figures;
* :class:`ExperimentResult` — a set of scenarios (one experiment family
  or the full Table IIa campaign) with train/test plumbing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.models.features import HostRole, MigrationSample
from repro.phases.timeline import MigrationPhase, PhaseTimeline
from repro.regression.training import TrainTestSplit, split_runs
from repro.telemetry.integration import integrate_power
from repro.telemetry.traces import PowerTrace, SeriesTrace

__all__ = [
    "ProgressEvent",
    "RunResult",
    "ScenarioResult",
    "ExperimentResult",
    "FigureSeries",
    "run_sample_count",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One worker's announcement that a campaign run finished.

    The campaign's live-progress record: emitted after every completed
    run and carried through whichever channel the backend already uses
    for task handoff — kept in memory by the in-process backends,
    appended to per-worker NDJSON sidecars in the spool (queue backend)
    — then surfaced by ``wavm3 campaign-status --follow`` and aggregated
    into the campaign summary.  It is strictly observational: nothing dispatches
    off it, and runs are deterministic in ``(seed, label, index)``
    whatever lane executes them.
    """

    #: Spool/service task identifier (``<key16>-<index>``), or
    #: ``<label>#<index>`` when no cache key exists (in-process backends).
    task_id: str
    #: Scenario label of the completed run.
    scenario: str
    #: Run index within the scenario's stream.
    run_index: int
    #: Worker identifier (``<hostname>-<pid>`` by convention).
    worker: str
    #: Runs this worker has completed so far (its lifetime counter).
    runs_completed: int
    #: Telemetry samples recorded by the run (power + feature rows).
    samples: int
    #: Wall-clock seconds the run took on the worker.
    wall_s: float
    #: Simulation samples produced per wall second (``samples / wall_s``).
    samples_per_s: float
    #: Unix timestamp of the announcement (``time.time()``).
    at: float

    @classmethod
    def for_run(
        cls, run: "RunResult", task_id: str, worker: str, runs_completed: int,
        wall_s: float,
    ) -> "ProgressEvent":
        """The announcement of ``run``, finished now after ``wall_s`` seconds."""
        samples = run_sample_count(run)
        wall = max(wall_s, 1e-9)
        return cls(
            task_id=task_id, scenario=run.scenario.label, run_index=run.run_index,
            worker=worker, runs_completed=runs_completed, samples=samples,
            wall_s=wall, samples_per_s=samples / wall, at=time.time(),
        )


def run_sample_count(run: "RunResult") -> int:
    """Telemetry samples recorded by one run (the progress-rate numerator)."""
    return len(run.source_trace) + len(run.target_trace) + len(run.features)


@dataclass(frozen=True)
class RunResult:
    """Artifacts of one instrumented migration run."""

    scenario: MigrationScenario
    run_index: int
    timeline: PhaseTimeline
    source_trace: PowerTrace
    target_trace: PowerTrace
    features: SeriesTrace
    source_idle_w: float
    target_idle_w: float
    vm_ram_mb: int

    # ------------------------------------------------------------------
    def trace_for(self, role: HostRole) -> PowerTrace:
        """The power trace of one host role."""
        return self.source_trace if role is HostRole.SOURCE else self.target_trace

    def idle_power_for(self, role: HostRole) -> float:
        """Catalogued idle draw of one host role."""
        return self.source_idle_w if role is HostRole.SOURCE else self.target_idle_w

    def phase_energy_j(self, role: HostRole, phase: MigrationPhase) -> float:
        """Measured energy (J) of one phase on one host."""
        trace = self.trace_for(role)
        t0, t1 = self.timeline.phase_interval(phase)
        return integrate_power(trace.times, trace.watts, t0, t1)

    def total_energy_j(self, role: HostRole) -> float:
        """Measured migration energy (J) of one host (Eq. 4)."""
        return sum(
            self.phase_energy_j(role, phase)
            for phase in (
                MigrationPhase.INITIATION,
                MigrationPhase.TRANSFER,
                MigrationPhase.ACTIVATION,
            )
        )

    # ------------------------------------------------------------------
    def sample_for(self, role: HostRole) -> MigrationSample:
        """Convert the run into a model sample for one host role.

        Features are attributed per role exactly as Section IV does:
        ``CPU(v,t)`` and ``DR(v,t)`` count only while the VM is placed on
        that role's host (0 on the target until it resumes there; 0 on
        the source afterwards).
        """
        self.timeline.validate()
        assert self.timeline.ms is not None and self.timeline.me is not None
        assert self.timeline.ts is not None and self.timeline.te is not None
        trace = self.trace_for(role)
        # Read-only views of the trace: a campaign's samples add no copy
        # of the power readings to the runs that hold them.
        span = trace.window_slice(self.timeline.ms, self.timeline.me)
        window = trace.times[span]
        if window.size < 4:
            raise ExperimentError(
                f"run {self.scenario.label}#{self.run_index}: migration window "
                f"holds only {window.size} readings"
            )
        power = trace.watts[span]

        ft = self.features.times
        def col(name: str) -> np.ndarray:
            return np.interp(window, ft, self.features.column(name))

        on_target = col("vm_on_target") > 0.5
        on_this = on_target if role is HostRole.TARGET else ~on_target
        cpu_vm = col("cpu_vm_pct") * on_this
        dr = col("dr_pct") * on_this
        cpu_host = col("cpu_src_pct") if role is HostRole.SOURCE else col("cpu_tgt_pct")
        bw = col("bw_bps")

        phase = np.full(window.size, 2, dtype=np.int64)
        phase[window < self.timeline.te] = 1
        phase[window < self.timeline.ts] = 0

        transfer_bw = bw[phase == 1]
        mean_bw = float(transfer_bw.mean()) if transfer_bw.size else 0.0

        return MigrationSample(
            scenario=self.scenario.label,
            experiment=self.scenario.experiment,
            live=self.scenario.live,
            family=self.scenario.family,
            role=role,
            run_index=self.run_index,
            times=window,
            power_w=power,
            phase=phase,
            cpu_host_pct=cpu_host,
            cpu_vm_pct=cpu_vm,
            bw_bps=bw,
            dr_pct=dr,
            data_bytes=float(self.timeline.bytes_total),
            mem_mb=float(self.vm_ram_mb),
            mean_bw_bps=mean_bw,
            energy_initiation_j=self.phase_energy_j(role, MigrationPhase.INITIATION),
            energy_transfer_j=self.phase_energy_j(role, MigrationPhase.TRANSFER),
            energy_activation_j=self.phase_energy_j(role, MigrationPhase.ACTIVATION),
            downtime_s=self.timeline.downtime,
            notes={"idle_power_w": self.idle_power_for(role)},
        )


@dataclass(frozen=True)
class FigureSeries:
    """A run-averaged power series aligned at migration start.

    ``times`` are seconds relative to ``pre_s`` before ``ms`` (so the
    x-axis reads like the paper's figures); phase marks are run-averaged
    offsets on the same axis.
    """

    label: str
    times: np.ndarray
    watts: np.ndarray
    mark_ms: float
    mark_ts: float
    mark_te: float
    mark_me: float


class ScenarioResult:
    """All runs of one scenario plus aggregate views."""

    def __init__(self, scenario: MigrationScenario, runs: Sequence[RunResult]) -> None:
        if not runs:
            raise ExperimentError(f"scenario {scenario.label!r} has no runs")
        self.scenario = scenario
        self.runs = list(runs)

    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        """Number of repetitions executed."""
        return len(self.runs)

    def total_energies_j(self, role: HostRole) -> np.ndarray:
        """Per-run measured migration energies for one host role."""
        return np.array([r.total_energy_j(role) for r in self.runs])

    def mean_energy_j(self, role: HostRole) -> float:
        """Mean migration energy across runs."""
        return float(self.total_energies_j(role).mean())

    def std_energy_j(self, role: HostRole) -> float:
        """Standard deviation of migration energy across runs."""
        return float(self.total_energies_j(role).std(ddof=1)) if self.n_runs > 1 else 0.0

    def mean_duration_s(self) -> float:
        """Mean total migration duration across runs."""
        return float(np.mean([r.timeline.total_duration for r in self.runs]))

    def mean_downtime_s(self) -> float:
        """Mean VM downtime across runs."""
        return float(np.mean([r.timeline.downtime for r in self.runs]))

    # ------------------------------------------------------------------
    def figure_series(
        self,
        role: HostRole,
        pre_s: float = 20.0,
        post_s: float = 20.0,
        dt: float = 0.5,
    ) -> FigureSeries:
        """Run-averaged power aligned at migration start (figure data).

        Each run's trace is re-sampled on a grid anchored ``pre_s`` before
        its own ``ms``, then averaged — the "average each result over ten
        experimental runs" of Section VI.
        """
        span = pre_s + max(r.timeline.total_duration for r in self.runs) + post_s
        grid = np.arange(0.0, span + dt / 2, dt)
        stack = np.empty((len(self.runs), grid.size))
        for i, run in enumerate(self.runs):
            trace = run.trace_for(role)
            assert run.timeline.ms is not None
            anchor = run.timeline.ms - pre_s
            stack[i] = np.interp(anchor + grid, trace.times, trace.watts)
        marks = np.array(
            [
                [
                    pre_s,
                    pre_s + r.timeline.initiation_duration,
                    pre_s + r.timeline.initiation_duration + r.timeline.transfer_duration,
                    pre_s + r.timeline.total_duration,
                ]
                for r in self.runs
            ]
        ).mean(axis=0)
        return FigureSeries(
            label=f"{self.scenario.label}:{role.value}",
            times=grid,
            watts=stack.mean(axis=0),
            mark_ms=float(marks[0]),
            mark_ts=float(marks[1]),
            mark_te=float(marks[2]),
            mark_me=float(marks[3]),
        )

    def samples(self, roles: Iterable[HostRole] = (HostRole.SOURCE, HostRole.TARGET)) -> list[MigrationSample]:
        """Model samples of every run for the requested roles."""
        return [run.sample_for(role) for run in self.runs for role in roles]


class ExperimentResult:
    """A campaign over several scenarios (one family or all of Table IIa)."""

    def __init__(self, scenario_results: Sequence[ScenarioResult]) -> None:
        if not scenario_results:
            raise ExperimentError("experiment has no scenario results")
        self.scenario_results = list(scenario_results)

    # ------------------------------------------------------------------
    @property
    def scenarios(self) -> tuple[MigrationScenario, ...]:
        """The scenarios covered."""
        return tuple(sr.scenario for sr in self.scenario_results)

    def result_for(self, label: str) -> ScenarioResult:
        """Look up one scenario's result by label."""
        for sr in self.scenario_results:
            if sr.scenario.label == label:
                return sr
        raise ExperimentError(f"no scenario {label!r} in this experiment")

    def all_runs(self) -> list[RunResult]:
        """Every run across every scenario, in campaign order."""
        return [run for sr in self.scenario_results for run in sr.runs]

    def samples(
        self,
        roles: Iterable[HostRole] = (HostRole.SOURCE, HostRole.TARGET),
        live: Optional[bool] = None,
    ) -> list[MigrationSample]:
        """Model samples of the whole campaign, optionally kind-filtered."""
        return list(self.iter_samples(roles=roles, live=live))

    def iter_samples(
        self,
        roles: Iterable[HostRole] = (HostRole.SOURCE, HostRole.TARGET),
        live: Optional[bool] = None,
    ) -> Iterator[MigrationSample]:
        """Stream the campaign's samples lazily, in :meth:`samples` order.

        Only one sample is materialised at a time on the producer side,
        so a streaming consumer — :func:`repro.io.save_samples_json`
        writes one record at a time — never holds the full sample list.
        """
        roles = tuple(roles)
        for sr in self.scenario_results:
            if live is not None and sr.scenario.live is not live:
                continue
            for run in sr.runs:
                for role in roles:
                    yield run.sample_for(role)

    def train_test_split(
        self,
        training_fraction: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[list[RunResult], list[RunResult], TrainTestSplit]:
        """Scenario-stratified run split (the paper's 20 % protocol)."""
        runs = self.all_runs()
        split = split_runs(
            [r.scenario.label for r in runs],
            training_fraction=training_fraction,
            rng=rng,
        )
        train, test = split.partition(runs)
        return train, test, split
