"""Scenario execution with the paper's measurement protocol.

Section V-B, reproduced step by step per run:

1. boot the scenario's guests and start measuring;
2. wait until both hosts' power **stabilises** (twenty consecutive
   readings within 0.3 %);
3. issue the migration through the toolstack;
4. keep measuring until the migration completes *and* power stabilises
   again;
5. repeat the run until the variance of the measured migration energy
   changes by less than 10 % between consecutive repetition counts —
   with **at least ten runs** (``min_runs``).

Every run gets an independent seed derived from
``(master seed, scenario label, run index)``, so campaigns are exactly
reproducible and runs are statistically independent.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.instances import make_instance_vm
from repro.experiments.results import ExperimentResult, RunResult, ScenarioResult
from repro.experiments.testbed import Testbed
from repro.hypervisor.migration import MigrationConfig
from repro.models.features import HostRole
from repro.simulator.rng import derive_seed
from repro.telemetry.stabilization import StabilizationRule

__all__ = [
    "RunnerSettings",
    "ScenarioRunner",
    "resolve_run_count",
]


def resolve_run_count(
    energies: Sequence[float],
    min_runs: int,
    max_runs: int,
    variance_delta: float,
) -> Optional[int]:
    """Replay the paper's variance-stopping rule over ordered run energies.

    The rule (Section V-B): stop at the first repetition count ``n`` with
    ``n >= min_runs`` whose sample variance differs from the variance at
    ``n - 1`` runs by less than ``variance_delta`` (relative).  The
    previous-variance chain is tracked from ``n = 2`` onwards — including
    the repetition counts below ``min_runs`` where the criterion itself is
    not yet checked — so the "consecutive repetition counts" comparison at
    ``n = min_runs`` uses the variance of the ``min_runs - 1`` prefix.

    Because the decision is a pure function of the ordered energy sequence,
    the serial loop and the parallel executor share it and are guaranteed
    to keep exactly the same runs.

    Returns
    -------
    Optional[int]
        The number of runs to keep, or ``None`` if the criterion is still
        undecided after ``len(energies)`` runs (i.e. more runs are needed;
        never ``None`` once ``len(energies) >= max_runs``).
    """
    if min_runs < 2 or max_runs < min_runs:
        raise ExperimentError(f"invalid run bounds: min={min_runs} max={max_runs}")
    previous_var: Optional[float] = None
    for n in range(2, min(len(energies), max_runs) + 1):
        current_var = float(np.var(np.asarray(energies[:n], dtype=np.float64), ddof=1))
        if (
            n >= min_runs
            and previous_var is not None
            and previous_var > 0
            and abs(current_var - previous_var) / previous_var < variance_delta
        ):
            return n
        previous_var = current_var
    if len(energies) >= max_runs:
        return max_runs
    return None


@dataclass(frozen=True)
class RunnerSettings:
    """Execution-protocol knobs (defaults = the paper's protocol).

    ``telemetry`` selects the sampling implementation, not the protocol:
    ``"batched"`` (default) drives all instruments through the
    interval-hook fast path, ``"events"`` keeps the one-heap-event-per-
    sample reference path.  Results are bit-identical either way (the
    cross-path golden tests assert byte-identical campaign samples JSON),
    which is why the run cache deliberately ignores the field.
    """

    min_warmup_s: float = 12.0          # before the stabilisation check starts
    max_warmup_s: float = 90.0          # hard cap on the pre-migration wait
    min_post_s: float = 12.0            # post-migration measurement floor
    max_post_s: float = 120.0           # hard cap on the post-migration wait
    check_interval_s: float = 2.5       # cadence of stabilisation checks
    migration_timeout_s: float = 900.0  # a migration must finish within this
    min_runs: int = 10                  # paper: "at least ten runs"
    max_runs: int = 16                  # safety cap on the variance loop
    variance_delta: float = 0.10        # paper: "less than 10 %"
    telemetry: str = "batched"          # "batched" fast path | "events" reference

    def __post_init__(self) -> None:
        if self.telemetry not in ("batched", "events"):
            raise ExperimentError(
                f"telemetry must be 'batched' or 'events', got {self.telemetry!r}"
            )


class ScenarioRunner:
    """Runs migration scenarios on freshly built testbeds.

    Parameters
    ----------
    seed:
        Master seed of the campaign.
    settings:
        Measurement-protocol knobs.
    migration_config:
        Optional migration-engine override (ablation studies).
    stabilization:
        The stability criterion (defaults to the paper's 20×0.3 % rule).
    """

    def __init__(
        self,
        seed: int = 0,
        settings: Optional[RunnerSettings] = None,
        migration_config: Optional[MigrationConfig] = None,
        stabilization: StabilizationRule = StabilizationRule(),
    ) -> None:
        self.seed = int(seed)
        self.settings = settings or RunnerSettings()
        self.migration_config = migration_config
        self.stabilization = stabilization
        #: Stats of the most recent parallel/cached campaign (``None`` until
        #: :meth:`run_campaign` is called with ``parallel``/``cache_dir``).
        self.last_executor_stats = None
        #: The stabilisation waits this runner simulated in-process, per
        #: budget: ``[waits, ended by the rule, simulated seconds waited]``.
        #: Strictly observational (no sample or cache key reads it).
        self.stabilisation_waits: dict[float, list] = {}

    # ------------------------------------------------------------------
    def build_testbed(self, scenario: MigrationScenario, run_index: int) -> Testbed:
        """The run's freshly seeded testbed (exactly :meth:`run_once`'s)."""
        run_seed = derive_seed(self.seed, f"{scenario.label}#{run_index}")
        cfg = self.settings
        return Testbed(
            family=scenario.family,
            seed=run_seed,
            telemetry=cfg.telemetry,
        )

    def run_once(self, scenario: MigrationScenario, run_index: int = 0) -> RunResult:
        """Execute one instrumented run of a scenario."""
        bed = self.build_testbed(scenario, run_index)
        protocol = self._run_protocol(bed, scenario, run_index)
        try:
            while True:
                step = next(protocol)
                if not isinstance(step, tuple):
                    bed.sim.run_for(step)
                elif step[0] == "stabilise":
                    self._run_until_stable(bed, step[1])
                else:  # ("migration", job)
                    self._run_until_finished(bed, step[1])
        except StopIteration as stop:
            return stop.value

    def _run_protocol(
        self, bed: Testbed, scenario: MigrationScenario, run_index: int
    ):
        """The Section V-B measurement protocol as a coroutine.

        Performs every protocol action on ``bed`` but *yields* instead of
        advancing simulated time: plain floats ask the driver to advance
        that many seconds, ``("stabilise", budget_s)`` marks a
        stabilisation wait and ``("migration", job)`` the wait for the
        migration.  :meth:`run_once`, the only driver, delegates the
        waits to :meth:`_run_until_stable`, a look-ahead loop that runs
        the simulator once per check it cannot skip, and takes the same
        samples and detects stabilisation at the same check as a
        single-check walk of the grid would
        (``tests/test_telemetry_batched.py`` pins the equivalence), and
        to :meth:`_run_until_finished`, which ends at the check-grid
        instant a poll of ``job.finished`` would
        (``tests/test_protocol_waits.py``).
        """
        cfg = self.settings
        run_seed = bed.seed

        # --- guests -----------------------------------------------------
        vm = make_instance_vm(
            scenario.migrating_instance,
            name="migrating",
            dirty_percent=scenario.dirty_percent,
            noise_seed=derive_seed(run_seed, "vm:migrating"),
        )
        bed.toolstack.create(bed.source_name, vm)
        load_host = (
            bed.source_name if scenario.load_on == "source" else bed.target_name
        )
        for i in range(scenario.load_vm_count):
            bed.toolstack.create(
                load_host,
                make_instance_vm(
                    "load-cpu",
                    name=f"load-{i}",
                    noise_seed=derive_seed(run_seed, f"vm:load-{i}"),
                ),
            )

        # --- instrumentation ---------------------------------------------
        recorder = bed.make_feature_recorder(vm)
        bed.start_instrumentation()
        recorder.start()

        # --- phase 0: stabilise ------------------------------------------
        yield cfg.min_warmup_s
        yield ("stabilise", cfg.max_warmup_s)

        # --- migrate -------------------------------------------------------
        job = bed.toolstack.migrate(
            "migrating",
            bed.source_name,
            bed.target_name,
            bed.path,
            live=scenario.live,
            config=self.migration_config,
        )
        recorder.attach_job(job)
        yield ("migration", job)
        if not job.finished:
            raise ExperimentError(
                f"migration did not finish within {cfg.migration_timeout_s}s "
                f"({scenario.label}#{run_index})"
            )

        # --- post-migration stabilisation ----------------------------------
        yield cfg.min_post_s
        yield ("stabilise", cfg.max_post_s)

        recorder.stop()
        bed.stop_instrumentation()

        return RunResult(
            scenario=scenario,
            run_index=run_index,
            timeline=job.timeline,
            source_trace=bed.source_meter.trace,
            target_trace=bed.target_meter.trace,
            features=recorder.trace,
            source_idle_w=bed.source.idle_power_w(),
            target_idle_w=bed.target.idle_power_w(),
            vm_ram_mb=vm.memory.ram_mb,
        )

    def run_batch(
        self,
        scenario: MigrationScenario,
        run_indices: Sequence[int],
        on_run=None,
    ) -> list[RunResult]:
        """Execute several runs of one scenario through this runner.

        The execution path of a dispatched ``RunTask``: scenario
        validation — family machine pair, switch spec, instance-catalog
        membership — is hoisted out of the per-run loop and paid once per
        batch, while each run still derives its own independent seed via
        ``derive_seed(master, f"{label}#{index}")``, builds its own
        testbed and runs through :meth:`run_once`.  Every run is therefore
        **bit-identical** to what :meth:`run_once` returns for the same
        index, whatever the batch shape.

        Parameters
        ----------
        scenario:
            The scenario to run.
        run_indices:
            The run indices to execute, in order (need not be contiguous:
            a worker resuming a partially-cached batch passes the holes).
        on_run:
            Optional callback invoked with each finished
            :class:`~repro.experiments.results.RunResult` as soon as it
            exists — distributed workers use it to announce progress and
            deposit into the shared cache incrementally instead of only
            after the whole batch.

        Returns
        -------
        list[RunResult]
            One result per index, in ``run_indices`` order.

        Raises
        ------
        ExperimentError
            On an empty or invalid index list, or any run failure.
        """
        from repro.cluster.machines import machine_pair, switch_spec  # local: keep import light
        from repro.experiments.instances import INSTANCE_CATALOG

        indices = list(run_indices)
        if not indices:
            raise ExperimentError("run_batch needs at least one run index")
        invalid = [
            index
            for index in indices
            if not isinstance(index, int) or isinstance(index, bool) or index < 0
        ]
        if invalid:
            # Report *every* offending index: a malformed task spec is
            # fixed in one round trip instead of one index at a time.
            raise ExperimentError(
                f"run indices must be non-negative integers, got {invalid!r}"
            )
        # Hoisted scenario validation: these raise exactly as the per-run
        # path would, just once per batch instead of once per run.
        machine_pair(scenario.family)
        switch_spec(scenario.family)
        if scenario.migrating_instance not in INSTANCE_CATALOG:
            raise ExperimentError(
                f"unknown instance {scenario.migrating_instance!r} "
                f"(catalog: {sorted(INSTANCE_CATALOG)})"
            )

        runs: list[RunResult] = []
        for index in indices:
            run = self.run_once(scenario, run_index=index)
            runs.append(run)
            if on_run is not None:
                on_run(run)
        return runs

    def _run_until_finished(self, bed: Testbed, job) -> None:
        """Advance to the first check-grid instant at which ``job`` has finished.

        The grid is ``now, now + check, …`` built by the same repeated
        float additions a ``run_for(check)`` poll makes, and the wait
        gives up at the first grid instant at or after the
        ``migration_timeout_s`` deadline (the caller raises).  Rather than
        polling, one run is stopped by the job's completion
        (:meth:`Simulator.stop <repro.simulator.engine.Simulator.stop>`)
        and a second one reaches the grid instant, so the clock, the
        events fired and the samples taken equal the poll's.
        """
        if job.finished:
            return
        sim = bed.sim
        check = self.settings.check_interval_s
        start = sim.now
        deadline = start + self.settings.migration_timeout_s
        last = start
        while last < deadline:
            last = last + check
        if last == start:
            return  # no poll: the deadline has already passed

        def stop(_job) -> None:
            sim.stop()

        job.on_complete.append(stop)
        try:
            sim.run(until=last)
        finally:
            job.on_complete.remove(stop)
        if not job.finished:
            return
        t = start
        while t < sim.now:
            t = t + check
        # Also fires the events left pending at the completion instant.
        sim.run(until=t)

    def _run_until_stable(self, bed: Testbed, budget_s: float) -> None:
        """Advance simulation until both meters satisfy the rule (or budget).

        Checks run on the ``check_interval_s`` grid, with a *look-ahead*:
        a meter that still needs ``k`` more in-tolerance readings cannot
        possibly satisfy the rule at a check reached before ``k`` new
        samples exist, so such checks are provably false and are elided
        by advancing several intervals in one ``run_for``.  The elision
        changes neither the samples taken nor the check at which
        stabilisation is first detected (only no-op checks are skipped),
        and it is evaluated identically under both telemetry modes.
        """
        sim = bed.sim
        spent = 0.0
        check = self.settings.check_interval_s
        rule = self.stabilization
        meters = (bed.source_meter, bed.target_meter)
        period = min(meter.period_s for meter in meters)
        trackers = [meter.tracker(rule) for meter in meters]
        start = sim.now
        stable = False
        while spent < budget_s:
            if all(tracker.stable for tracker in trackers):
                stable = True
                break
            deficit = max(tracker.deficit for tracker in trackers)
            # The original loop would run ceil(remaining / check) more
            # checks; never skip beyond that.
            max_steps = max(1, math.ceil((budget_s - spent) / check))
            steps = 1
            # A j-interval window of length j*check holds at most
            # floor(j*check/period) + 1 sample instants.
            while (
                steps < max_steps
                and math.floor(steps * check / period) + 1 < deficit
            ):
                steps += 1
            sim.run_for(check * steps)
            spent += check * steps
        # Budget exhausted: proceed — matching lab practice where a run is
        # not discarded for residual ripple, just measured longer.
        tally = self.stabilisation_waits.setdefault(budget_s, [0, 0, 0.0])
        tally[0] += 1
        tally[1] += stable
        tally[2] += sim.now - start

    # ------------------------------------------------------------------
    def run_scenario(
        self,
        scenario: MigrationScenario,
        min_runs: Optional[int] = None,
        max_runs: Optional[int] = None,
    ) -> ScenarioResult:
        """Repeat a scenario until the paper's variance criterion holds."""
        lo = min_runs if min_runs is not None else self.settings.min_runs
        hi = max_runs if max_runs is not None else self.settings.max_runs
        if lo < 2 or hi < lo:
            raise ExperimentError(f"invalid run bounds: min={lo} max={hi}")

        runs: list[RunResult] = []
        energies: list[float] = []
        for index in range(hi):
            run = self.run_once(scenario, run_index=index)
            runs.append(run)
            energies.append(run.total_energy_j(HostRole.SOURCE))
            kept = resolve_run_count(energies, lo, hi, self.settings.variance_delta)
            if kept is not None:
                break
        return ScenarioResult(scenario, runs)

    def run_campaign(
        self,
        scenarios: Sequence[MigrationScenario],
        min_runs: Optional[int] = None,
        max_runs: Optional[int] = None,
        parallel: Optional[Union[int, str]] = None,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        spool_dir: Optional[Union[str, pathlib.Path]] = None,
        queue_options: Optional[dict] = None,
        batch_size: None = None,
    ) -> ExperimentResult:
        """Run a list of scenarios into one :class:`ExperimentResult`.

        Parameters
        ----------
        scenarios:
            The scenarios to measure (at least one).
        min_runs / max_runs:
            Bounds of the variance-stopping loop; default to
            :attr:`settings`.
        parallel:
            Number of worker processes to fan runs out across, or the
            string ``"queue"`` to dispatch runs through the file-based
            distributed work queue (requires ``cache_dir`` and
            ``spool_dir``; see :mod:`repro.experiments.queue_backend`).
            ``None`` or ``1`` keeps the in-process serial path (unless a
            ``cache_dir`` is given); results are bit-identical in every
            mode because every run's seed depends only on
            ``(master seed, scenario label, run index)``.
        cache_dir:
            Optional on-disk run cache (see
            :class:`~repro.experiments.executor.RunCache`); re-running an
            unchanged campaign then performs zero simulation runs.
        spool_dir:
            Shared task spool of the ``"queue"`` mode, served by
            ``campaign-worker`` processes (ignored otherwise).
        queue_options:
            Extra ``"queue"``-mode knobs forwarded to
            :class:`~repro.experiments.queue_backend.QueueBackend`.
        batch_size:
            Accepts ``None`` only.  Every backend runs the one dispatch
            plan (see :class:`~repro.experiments.executor.CampaignExecutor`),
            so there is no size to choose; the keyword stays only because
            the paper-campaign benchmark (``perfbench/workloads.py``)
            still passes ``batch_size=None``.

        Returns
        -------
        ExperimentResult
            One :class:`~repro.experiments.results.ScenarioResult` per
            scenario, in input order.

        Raises
        ------
        ExperimentError
            On an empty scenario list, invalid ``parallel``/run bounds, a
            ``batch_size`` other than ``None``, missing companion
            arguments of a distributed mode, or any propagated run
            failure.
        """
        if not scenarios:
            raise ExperimentError("campaign needs at least one scenario")
        if batch_size is not None:
            raise ExperimentError(
                f"batch_size accepts only None (one dispatch plan), got {batch_size!r}"
            )
        if isinstance(parallel, str) and parallel != "queue":
            raise ExperimentError(f"parallel must be an int or 'queue', got {parallel!r}")
        if parallel == "queue":
            from repro.experiments.executor import CampaignExecutor  # local: avoid cycle

            executor = CampaignExecutor(
                self, backend="queue", cache_dir=cache_dir,
                spool_dir=spool_dir, queue_options=queue_options,
            )
            result = executor.run_campaign(scenarios, min_runs=min_runs, max_runs=max_runs)
            self.last_executor_stats = executor.stats
            return result
        if parallel is not None and parallel < 1:
            raise ExperimentError(f"parallel must be >= 1, got {parallel}")
        if (parallel is not None and parallel > 1) or cache_dir is not None:
            from repro.experiments.executor import CampaignExecutor  # local: avoid cycle

            executor = CampaignExecutor(self, jobs=parallel or 1, cache_dir=cache_dir)
            result = executor.run_campaign(scenarios, min_runs=min_runs, max_runs=max_runs)
            self.last_executor_stats = executor.stats
            return result
        return ExperimentResult(
            [self.run_scenario(s, min_runs=min_runs, max_runs=max_runs) for s in scenarios]
        )
