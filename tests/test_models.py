"""Energy models: fitting, prediction, structural facts of the tables."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.models import (
    HostRole,
    HuangModel,
    LiuModel,
    MigrationSample,
    StrunkModel,
    Wavm3Model,
    available_models,
    create_model,
)
from repro.models.coefficients import (
    PAPER_TABLE_III_NONLIVE,
    PAPER_TABLE_IV_LIVE,
    paper_wavm3_coefficients,
)
from repro.models.registry import register_model
from repro.phases.timeline import MigrationPhase


class TestRegistry:
    def test_table_vii_set(self):
        assert available_models()[:4] == ("WAVM3", "HUANG", "LIU", "STRUNK")

    def test_create_case_insensitive(self):
        assert isinstance(create_model("wavm3"), Wavm3Model)

    def test_unknown_model(self):
        with pytest.raises(ModelError):
            create_model("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ModelError):
            register_model("WAVM3", Wavm3Model)


class TestMigrationSample:
    def test_alignment_enforced(self, live_cpu_run):
        sample = live_cpu_run.sample_for(HostRole.SOURCE)
        n = sample.n_readings
        for array in (sample.power_w, sample.phase, sample.cpu_host_pct,
                      sample.cpu_vm_pct, sample.bw_bps, sample.dr_pct):
            assert len(array) == n

    def test_energy_total_is_sum(self, live_cpu_run):
        sample = live_cpu_run.sample_for(HostRole.SOURCE)
        assert sample.energy_total_j == pytest.approx(
            sample.energy_initiation_j
            + sample.energy_transfer_j
            + sample.energy_activation_j
        )

    def test_phase_masks_partition(self, live_cpu_run):
        sample = live_cpu_run.sample_for(HostRole.TARGET)
        total = sum(
            int(sample.phase_mask(p).sum())
            for p in (MigrationPhase.INITIATION, MigrationPhase.TRANSFER,
                      MigrationPhase.ACTIVATION)
        )
        assert total == sample.n_readings

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ModelError):
            MigrationSample(
                scenario="x", experiment="X", live=True, family="m",
                role=HostRole.SOURCE, run_index=0,
                times=np.array([1.0, 2.0]), power_w=np.array([1.0]),
                phase=np.array([0, 1]), cpu_host_pct=np.array([0.0, 0.0]),
                cpu_vm_pct=np.array([0.0, 0.0]), bw_bps=np.array([0.0, 0.0]),
                dr_pct=np.array([0.0, 0.0]), data_bytes=1.0, mem_mb=1.0,
                mean_bw_bps=1.0, energy_initiation_j=0.0,
                energy_transfer_j=0.0, energy_activation_j=0.0,
            )


class TestWavm3Fitting:
    def test_fit_then_predict(self, mini_samples):
        model = Wavm3Model().fit(mini_samples)
        prediction = model.predict_energy(mini_samples[0])
        assert prediction.total_j > 0
        assert prediction.transfer_j > prediction.initiation_j

    def test_unfitted_raises(self, mini_samples):
        with pytest.raises(NotFittedError):
            Wavm3Model().predict_energy(mini_samples[0])

    def test_reasonable_accuracy_in_sample(self, mini_samples):
        model = Wavm3Model().fit(mini_samples)
        predicted = model.predict_energies(mini_samples)
        measured = model.measured_energies(mini_samples)
        assert np.all(np.abs(predicted - measured) / measured < 0.35)

    def test_coefficients_nonnegative(self, mini_samples):
        model = Wavm3Model().fit(mini_samples)
        for phases in model.coefficients.values.values():
            for coefs in phases.values():
                assert all(value >= 0.0 for value in coefs.values())

    def test_positive_cpu_slope(self, mini_samples):
        model = Wavm3Model().fit(mini_samples)
        alpha = model.coefficients.coefficient(
            HostRole.SOURCE, MigrationPhase.TRANSFER, "cpu_host"
        )
        assert alpha > 0.5  # watts per CPU percent on the m-pair

    def test_target_transfer_dr_zero(self, mini_samples):
        # Paper Table IV: gamma(t) = 0 on the target (no VM there yet).
        model = Wavm3Model().fit(mini_samples)
        gamma = model.coefficients.coefficient(
            HostRole.TARGET, MigrationPhase.TRANSFER, "dr"
        )
        assert gamma == 0.0

    def test_ablation_disables_feature(self, mini_samples):
        model = Wavm3Model(disabled_features={"bw"}).fit(mini_samples)
        beta = model.coefficients.coefficient(
            HostRole.SOURCE, MigrationPhase.TRANSFER, "bw"
        )
        assert beta == 0.0

    def test_unknown_disabled_feature_rejected(self):
        with pytest.raises(ModelError):
            Wavm3Model(disabled_features={"zz"})

    def test_unknown_method_rejected(self):
        with pytest.raises(ModelError):
            Wavm3Model(method="magic")

    def test_rebias_shifts_constants(self, mini_samples):
        model = Wavm3Model().fit(mini_samples)
        original = model.coefficients
        ported = original.rebias(deployed_idle_w=112.0)
        for role in (HostRole.SOURCE, HostRole.TARGET):
            for phase in (MigrationPhase.INITIATION, MigrationPhase.TRANSFER,
                          MigrationPhase.ACTIVATION):
                assert ported.coefficient(role, phase, "const") <= original.coefficient(
                    role, phase, "const"
                )
                # Slopes untouched (the paper only adjusts the bias).
                assert ported.coefficient(role, phase, "cpu_host") == original.coefficient(
                    role, phase, "cpu_host"
                )

    def test_empty_fit_rejected(self):
        with pytest.raises(ModelError):
            Wavm3Model().fit([])


class TestPaperCoefficients:
    def test_structural_zeroes(self):
        # beta(i) = 0 on target initiation; gamma(t) = 0 on target transfer.
        assert PAPER_TABLE_III_NONLIVE["target"]["initiation"]["beta"] == 0.0
        assert PAPER_TABLE_IV_LIVE["target"]["transfer"]["gamma"] == 0.0

    def test_c2_lower_than_c1(self):
        for table in (PAPER_TABLE_III_NONLIVE, PAPER_TABLE_IV_LIVE):
            for role in table.values():
                for phase in role.values():
                    assert phase["C2"] < phase["C1"]

    def test_paper_model_predicts(self, mini_samples):
        model = Wavm3Model().with_coefficients(paper_wavm3_coefficients(live=True))
        live_sample = next(s for s in mini_samples if s.live)
        assert model.predict_energy(live_sample).total_j > 0

    def test_paper_coefficients_rebias(self):
        coefs = paper_wavm3_coefficients(live=True, dataset="m")
        ported = coefs.rebias(deployed_idle_w=112.0)
        assert ported.coefficient(
            HostRole.SOURCE, MigrationPhase.INITIATION, "const"
        ) == pytest.approx(708.3 - (455.0 - 112.0))


class TestHuang:
    def test_fit_and_predict(self, mini_samples):
        model = HuangModel().fit(mini_samples)
        assert model.predict_energy(mini_samples[0]).total_j > 0

    def test_constant_near_idle(self, mini_samples):
        # C absorbs the idle draw (the paper's Table VI C ~ 650-670 W).
        model = HuangModel().fit(mini_samples)
        for role in (HostRole.SOURCE, HostRole.TARGET):
            _, c = model.coefficients[role]
            assert 350.0 < c < 700.0

    def test_vm_cpu_variant(self, mini_samples):
        model = HuangModel(cpu_source="vm").fit(mini_samples)
        assert model.predict_energy(mini_samples[0]).total_j > 0

    def test_bad_cpu_source(self):
        with pytest.raises(ModelError):
            HuangModel(cpu_source="disk")

    def test_rebias(self, mini_samples):
        model = HuangModel().fit(mini_samples)
        ported = model.rebias(deployed_idle_w=112.0)
        for role in (HostRole.SOURCE, HostRole.TARGET):
            assert ported.coefficients[role][1] < model.coefficients[role][1]


class TestLiu:
    def test_energy_grows_with_data(self, mini_samples):
        model = LiuModel().fit(mini_samples)
        small = next(s for s in mini_samples if not s.live)
        alpha, c = model.coefficients[small.role]
        assert alpha >= 0

    def test_power_view_rejected(self, mini_samples):
        model = LiuModel().fit(mini_samples)
        with pytest.raises(ModelError):
            model.predict_power(mini_samples[0])

    def test_needs_two_migrations(self, mini_samples):
        with pytest.raises(ModelError):
            LiuModel().fit(mini_samples[:1])

class TestStrunk:
    def test_fit_and_predict(self, mini_samples):
        model = StrunkModel().fit(mini_samples)
        assert model.fitted
        prediction = model.predict_energy(mini_samples[0])
        assert np.isfinite(prediction.total_j)

    def test_constant_mem_column_pinned(self, mini_samples):
        # Every migrating VM is 4 GB -> MEM has no spread -> alpha = 0.
        model = StrunkModel().fit(mini_samples)
        for role in (HostRole.SOURCE, HostRole.TARGET):
            alpha, _, _ = model.coefficients[role]
            assert alpha == 0.0

    def test_needs_three_migrations(self, mini_samples):
        with pytest.raises(ModelError):
            StrunkModel().fit(mini_samples[:2])

    def test_unfitted_raises(self, mini_samples):
        with pytest.raises(NotFittedError):
            StrunkModel().predict_energy(mini_samples[0])
