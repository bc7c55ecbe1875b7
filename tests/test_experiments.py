"""Experiment harness: catalog, design, runner protocol, results."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import (
    DIRTY_PERCENTS,
    INSTANCE_CATALOG,
    LOAD_VM_COUNTS,
    MigrationScenario,
    ScenarioRunner,
    all_scenarios,
    cpuload_source_scenarios,
    make_instance_vm,
    memload_vm_scenarios,
)
from repro.experiments.runner import RunnerSettings
from repro.models.features import HostRole
from repro.phases.timeline import MigrationPhase


class TestInstanceCatalog:
    def test_table_iib_rows(self):
        assert INSTANCE_CATALOG["load-cpu"].vcpus == 4
        assert INSTANCE_CATALOG["load-cpu"].ram_mb == 512
        assert INSTANCE_CATALOG["migrating-cpu"].ram_mb == 4096
        assert INSTANCE_CATALOG["migrating-mem"].vcpus == 1
        assert INSTANCE_CATALOG["dom-0"].workload_name == "VMM"

    def test_make_migrating_cpu(self):
        vm = make_instance_vm("migrating-cpu", "m")
        assert vm.vcpus == 4 and vm.memory.ram_mb == 4096
        assert vm.workload.name == "matrixmult"

    def test_make_migrating_mem_needs_dirty_percent(self):
        with pytest.raises(ConfigurationError):
            make_instance_vm("migrating-mem", "m")

    def test_dirty_percent_only_for_mem(self):
        with pytest.raises(ConfigurationError):
            make_instance_vm("load-cpu", "m", dirty_percent=50.0)

    def test_unknown_instance(self):
        with pytest.raises(ConfigurationError):
            make_instance_vm("gpu-node", "m")

    def test_dom0_not_instantiable(self):
        with pytest.raises(ConfigurationError):
            make_instance_vm("dom-0", "m")


class TestDesign:
    def test_load_levels_match_figures(self):
        assert LOAD_VM_COUNTS == (0, 1, 3, 5, 7, 8)

    def test_dirty_sweep_matches_fig5(self):
        assert DIRTY_PERCENTS == (5.0, 15.0, 35.0, 55.0, 75.0, 95.0)

    def test_full_campaign_size(self):
        # CPULOAD: 2 families x 2 kinds x 6 levels; MEMLOAD: 3 x 6 live.
        assert len(all_scenarios("m")) == 42

    def test_labels_unique(self):
        labels = [s.label for s in all_scenarios("m")]
        assert len(labels) == len(set(labels))

    def test_cpuload_source_both_kinds(self):
        kinds = {s.live for s in cpuload_source_scenarios()}
        assert kinds == {True, False}

    def test_memload_live_only(self):
        assert all(s.live for s in memload_vm_scenarios())

    def test_memload_nonlive_rejected(self):
        # Section V-A2: non-live has DR = 0, so the design forbids it.
        with pytest.raises(ConfigurationError):
            MigrationScenario("X", "x", live=False, dirty_percent=50.0)

    def test_instance_selection(self):
        cpu = MigrationScenario("X", "c", live=True)
        mem = MigrationScenario("X", "m", live=True, dirty_percent=10.0)
        assert cpu.migrating_instance == "migrating-cpu"
        assert mem.migrating_instance == "migrating-mem"

    def test_bad_family_rejected(self):
        with pytest.raises(ConfigurationError):
            MigrationScenario("X", "x", live=True, family="q")


class TestRunOnce:
    def test_run_produces_complete_artifacts(self, live_cpu_run):
        run = live_cpu_run
        run.timeline.validate()
        assert len(run.source_trace) > 50
        assert len(run.target_trace) == len(run.source_trace)
        assert len(run.features) == len(run.source_trace)

    def test_run_is_deterministic(self, runner):
        scenario = MigrationScenario("CPULOAD-SOURCE", "det/0vm", live=True)
        a = runner.run_once(scenario, run_index=3)
        b = runner.run_once(scenario, run_index=3)
        assert np.array_equal(a.source_trace.watts, b.source_trace.watts)
        assert a.timeline.te == b.timeline.te

    def test_different_run_indices_differ(self, runner):
        scenario = MigrationScenario("CPULOAD-SOURCE", "det/0vm", live=True)
        a = runner.run_once(scenario, run_index=0)
        b = runner.run_once(scenario, run_index=1)
        assert not np.array_equal(a.source_trace.watts, b.source_trace.watts)

    def test_phase_energies_positive(self, live_cpu_run):
        for role in (HostRole.SOURCE, HostRole.TARGET):
            for phase in (MigrationPhase.INITIATION, MigrationPhase.TRANSFER,
                          MigrationPhase.ACTIVATION):
                assert live_cpu_run.phase_energy_j(role, phase) > 0

    def test_transfer_dominates_energy(self, live_cpu_run):
        source_total = live_cpu_run.total_energy_j(HostRole.SOURCE)
        transfer = live_cpu_run.phase_energy_j(HostRole.SOURCE, MigrationPhase.TRANSFER)
        assert transfer / source_total > 0.75

    def test_sample_roles_share_bw(self, live_cpu_run):
        src = live_cpu_run.sample_for(HostRole.SOURCE)
        tgt = live_cpu_run.sample_for(HostRole.TARGET)
        assert src.data_bytes == tgt.data_bytes

    def test_vm_features_follow_placement(self, live_cpu_run):
        src = live_cpu_run.sample_for(HostRole.SOURCE)
        tgt = live_cpu_run.sample_for(HostRole.TARGET)
        transfer = src.phase_mask(MigrationPhase.TRANSFER)
        # During transfer the VM runs on the source (live migration)...
        assert src.cpu_vm_pct[transfer].max() > 50.0
        # ... and is absent from the target.
        assert tgt.cpu_vm_pct[transfer].max() == 0.0

    def test_sample_slices_the_trace(self, live_cpu_run):
        """A sample's times and power are read-only views of the run's
        trace, equal to the inclusive [ms, me] mask."""
        ms, me = live_cpu_run.timeline.ms, live_cpu_run.timeline.me
        for role in (HostRole.SOURCE, HostRole.TARGET):
            trace = live_cpu_run.trace_for(role)
            sample = live_cpu_run.sample_for(role)
            mask = (trace.times >= ms) & (trace.times <= me)
            assert np.array_equal(sample.times, trace.times[mask])
            assert np.array_equal(sample.power_w, trace.watts[mask])
            assert np.shares_memory(sample.times, trace.times)
            assert np.shares_memory(sample.power_w, trace.watts)
            assert not sample.power_w.flags.writeable

    def test_short_window_error_counts_readings(self, live_cpu_run):
        ms, me = live_cpu_run.source_trace.times[[40, 42]].tolist()
        short = dataclasses.replace(
            live_cpu_run,
            timeline=dataclasses.replace(live_cpu_run.timeline, ms=ms, ts=ms, te=ms, me=me),
        )
        with pytest.raises(ExperimentError, match="holds only 3 readings"):
            short.sample_for(HostRole.SOURCE)

    def test_memload_dr_feature(self, live_mem_run):
        src = live_mem_run.sample_for(HostRole.SOURCE)
        transfer = src.phase_mask(MigrationPhase.TRANSFER)
        # DR ~ the 75 % sweep value while the VM still runs on the source.
        assert src.dr_pct[transfer].max() > 45.0


class TestVarianceProtocol:
    def test_minimum_runs_respected(self, runner):
        scenario = MigrationScenario("CPULOAD-SOURCE", "var/0vm", live=False)
        result = runner.run_scenario(scenario, min_runs=3, max_runs=6)
        assert 3 <= result.n_runs <= 6

    def test_bad_bounds_rejected(self, runner):
        scenario = MigrationScenario("CPULOAD-SOURCE", "var/x", live=False)
        with pytest.raises(ExperimentError):
            runner.run_scenario(scenario, min_runs=1, max_runs=0)

    def test_settings_validation(self):
        settings = RunnerSettings(min_runs=10)
        assert settings.variance_delta == pytest.approx(0.10)


class TestScenarioResult:
    def test_energy_stats(self, mini_campaign):
        sr = mini_campaign.scenario_results[0]
        energies = sr.total_energies_j(HostRole.SOURCE)
        assert energies.shape == (sr.n_runs,)
        assert sr.mean_energy_j(HostRole.SOURCE) == pytest.approx(energies.mean())

    def test_figure_series_alignment(self, mini_campaign):
        sr = mini_campaign.scenario_results[0]
        series = sr.figure_series(HostRole.SOURCE, pre_s=15.0)
        assert series.mark_ms == pytest.approx(15.0)
        assert series.mark_ms < series.mark_ts < series.mark_te < series.mark_me
        assert series.times.shape == series.watts.shape

    def test_campaign_samples_count(self, mini_campaign):
        samples = mini_campaign.samples()
        expected = sum(sr.n_runs for sr in mini_campaign.scenario_results) * 2
        assert len(samples) == expected

    def test_kind_filter(self, mini_campaign):
        live_only = mini_campaign.samples(live=True)
        assert all(s.live for s in live_only)

    def test_split_stratified(self, mini_campaign):
        train, test, _ = mini_campaign.train_test_split(training_fraction=0.34)
        train_labels = {r.scenario.label for r in train}
        assert train_labels == {sr.scenario.label for sr in mini_campaign.scenario_results}
        assert len(train) + len(test) == len(mini_campaign.all_runs())

    def test_lookup_by_label(self, mini_campaign):
        label = mini_campaign.scenario_results[0].scenario.label
        assert mini_campaign.result_for(label).scenario.label == label
        with pytest.raises(ExperimentError):
            mini_campaign.result_for("ghost")
