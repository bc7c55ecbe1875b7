"""Regression machinery: solvers, metrics, splits, bias correction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RegressionError
from repro.models.features import HostRole
from repro.models.huang import HuangModel
from repro.models.liu import LiuModel
from repro.models.wavm3 import PHASE_FEATURES, Wavm3Model
from repro.phases.timeline import MigrationPhase
from repro.regression import (
    ErrorReport,
    fit_linear,
    fit_nonnegative,
    linear,
    mae,
    nrmse,
    rebias_constant,
    rmse,
    split_runs,
)


class TestLinearFits:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, (100, 3))
        true = np.array([2.0, 0.5, 7.0])
        fit = fit_linear(X, X @ true)
        assert fit.coefficients == pytest.approx(true, abs=1e-8)

    def test_nonnegative_respects_bounds(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 10, (200, 2))
        y = X @ np.array([3.0, -2.0]) + rng.normal(0, 0.1, 200)
        fit = fit_nonnegative(X, y)
        assert np.all(fit.coefficients >= 0)

    def test_nonnegative_matches_ols_when_interior(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.uniform(0, 100, 300), np.ones(300)])
        y = X @ np.array([2.4, 420.0]) + rng.normal(0, 1.0, 300)
        assert fit_nonnegative(X, y).coefficients == pytest.approx(
            fit_linear(X, y).coefficients, abs=1e-6
        )

    def test_predict_shape_check(self):
        fit = fit_linear(np.ones((5, 2)), np.ones(5))
        with pytest.raises(RegressionError):
            fit.predict(np.ones((3, 4)))

    def test_underdetermined_rejected(self):
        with pytest.raises(RegressionError):
            fit_linear(np.ones((2, 5)), np.ones(2))

    def test_nonfinite_rejected(self):
        X = np.ones((5, 1))
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        with pytest.raises(RegressionError):
            fit_linear(X, y)

    def test_residual_norm_reported(self):
        X = np.column_stack([np.arange(10.0), np.ones(10)])
        y = X @ np.array([1.0, 0.0])
        assert fit_linear(X, y).residual_norm == pytest.approx(0.0, abs=1e-9)


def _enumerated_nnls_objective(A, b):
    """Oracle: the best feasible unconstrained sub-fit over all 2ⁿ passive sets.

    Works on unit-norm columns (the objective does not depend on column
    scale).  The optimum of a non-negative least-squares problem is the
    unconstrained fit on the columns it leaves free, so the minimum over
    every sub-fit whose coefficients are all ≥ 0 is the exact optimum.
    """
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0.0] = 1.0
    A = A / norms
    best = float(b @ b)
    for subset in itertools.product((False, True), repeat=A.shape[1]):
        columns = np.flatnonzero(subset)
        if columns.size == 0:
            continue
        z = np.linalg.lstsq(A[:, columns], b, rcond=None)[0]
        if z.min() < -1e-9 * max(1.0, float(np.abs(z).max())):
            continue
        residual = A[:, columns] @ np.maximum(z, 0.0) - b
        best = min(best, float(residual @ residual))
    return best


@st.composite
def _nnls_problems(draw):
    """Small NNLS problems with the degeneracies the model fits meet.

    Duplicated and collinear columns (host vs VM CPU), an all-zero column
    (a feature never active in a phase) and column scales from 1e-3 to 1e9
    (``bw_bps`` next to CPU %).
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(0.0, 1.0, (m, n))
    if n >= 2 and draw(st.booleans()):
        A[:, 1] = A[:, 0]
    if n >= 3 and draw(st.booleans()):
        A[:, 2] = 0.5 * A[:, 0] + 2.0 * A[:, 1]
    if draw(st.booleans()):
        A[:, draw(st.integers(0, n - 1))] = 0.0
    A *= 10.0 ** rng.uniform(-3.0, 9.0, n)
    truth = rng.normal(0.0, 1.0, n) / np.where(A.any(axis=0), np.abs(A).max(axis=0), 1.0)
    b = A @ truth + rng.normal(0.0, draw(st.sampled_from((0.0, 0.01, 1.0))), m)
    return A, b


class TestNonnegativeOracle:
    @given(_nnls_problems())
    @settings(max_examples=300, deadline=None)
    def test_kkt_and_enumeration_optimum(self, problem):
        A, b = problem
        fit = fit_nonnegative(A, b)
        x = fit.coefficients
        assert np.all(x >= 0.0)
        # KKT on unit-norm columns: no bound coefficient can lower the
        # residual, and free coefficients have a zero gradient.
        norms = np.linalg.norm(A, axis=0)
        norms[norms == 0.0] = 1.0
        gradient = (A / norms).T @ (b - A @ x)
        slack = 1e-9 * max(float(np.linalg.norm(b)), 1e-300)
        assert np.all(gradient <= slack)
        assert np.all(np.abs(gradient[x > 0.0]) <= slack)
        objective = fit.residual_norm**2
        assert objective == pytest.approx(
            _enumerated_nnls_objective(A, b), rel=1e-8, abs=1e-12 * float(b @ b)
        )

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1.0, (30, 4))
        y = X @ np.array([1.0, -1.0, 2.0, -2.0])
        monkeypatch.setattr(linear, "_ITERATIONS_PER_COLUMN", 0)
        with pytest.raises(RegressionError, match="did not converge"):
            fit_nonnegative(X, y)


#: Coefficients fitted on the ``mini_samples`` fixture, per migration kind,
#: computed with scipy 1.17.1's bounded-variable least-squares solver
#: ``optimize.lsq_linear(method="bvls")`` as an independent oracle (the
#: solver ``fit_nonnegative`` called until it became a numpy Lawson–Hanson
#: solver; scipy is not a dependency of ``src/``).  Recomputed when host CPU
#: jitter came to be averaged over the meter period, which changed the
#: fixture's samples.  Exact zeros are coefficients bvls left on their
#: bound, except LIU's non-live constants, where bvls stopped at 1.57e-15
#: (source) and 1.26e-15 (target) J, a rounding step above the bound of a
#: fit whose energies are ~1e4 J.
_BVLS_WAVM3 = {
    "non-live": {
        "source": {
            "initiation": (5.20110263369371, 0.0, 427.20469242808696),
            "transfer": (5.230930528949554, 2.0433320826127247e-07, 0.0, 0.0, 449.6634071482716),
            "activation": (5.071758882678232, 0.0, 437.1147200485104),
        },
        "target": {
            "initiation": (6.069094507349958, 0.0, 453.9371662457833),
            "transfer": (0.0, 7.423681405167914e-07, 0.0, 0.0, 461.8584150686942),
            "activation": (2.0930345628797737, 0.0, 472.53352360455204),
        },
    },
    "live": {
        "source": {
            "initiation": (5.565934291293192, 4.73541392227451, 0.0),
            "transfer": (5.957338138645423, 0.0, 0.5617083316753977, 0.0, 474.2990794784381),
            "activation": (5.504738803687829, 0.0, 451.8983439695519),
        },
        "target": {
            "initiation": (7.345557002048592, 0.0, 453.2116934112605),
            "transfer": (10.782974894250115, 7.205955265534179e-07, 0.0, 0.0, 436.15790128889125),
            "activation": (0.0, 0.3827793198525761, 481.30299197872733),
        },
    },
}
_BVLS_HUANG = {
    "non-live": {"source": (5.231050730053281, 466.8842542997459),
                 "target": (0.0, 537.2695153061233)},
    "live": {"source": (5.724371787135661, 491.5664786779566),
             "target": (0.0, 548.1235010060368)},
}
_BVLS_LIU = {
    "non-live": {"source": (6.7236210882757225e-06, 0.0),
                 "target": (5.4188771487209136e-06, 0.0)},
    "live": {"source": (2.3908904630232655e-06, 42986.0821507974),
             "target": (3.7264795339514924e-06, 23022.32778490419)},
}


@pytest.mark.parametrize("kind", ["non-live", "live"])
class TestPinnedModelFits:
    """The paper models' fits on ``mini_samples`` reproduce bvls to 1e-9."""

    @staticmethod
    def _samples(mini_samples, kind):
        return [s for s in mini_samples if s.live is (kind == "live")]

    def test_wavm3(self, mini_samples, kind):
        model = Wavm3Model().fit(self._samples(mini_samples, kind))
        for role, phases in _BVLS_WAVM3[kind].items():
            for phase, pinned in phases.items():
                fitted = model.coefficients.values[HostRole(role)][MigrationPhase(phase)]
                np.testing.assert_allclose(
                    [fitted[name] for name in PHASE_FEATURES[MigrationPhase(phase)]],
                    pinned, rtol=1e-9, atol=0.0,
                )

    @pytest.mark.parametrize("model_type, pins", [(HuangModel, _BVLS_HUANG), (LiuModel, _BVLS_LIU)])
    def test_two_coefficient_models(self, mini_samples, kind, model_type, pins):
        model = model_type().fit(self._samples(mini_samples, kind))
        for role, pinned in pins[kind].items():
            np.testing.assert_allclose(
                model.coefficients[HostRole(role)], pinned, rtol=1e-9, atol=0.0
            )


class TestMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mae(y, y) == 0.0
        assert rmse(y, y) == 0.0
        assert nrmse(y, y) == 0.0

    def test_known_values(self):
        y_true = np.array([0.0, 0.0, 0.0, 0.0])
        y_pred = np.array([1.0, -1.0, 1.0, -1.0])
        assert mae(y_true, y_pred) == 1.0
        assert rmse(y_true, y_pred) == 1.0

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 10, 50)
        p = y + rng.normal(0, 1, 50)
        assert rmse(y, p) >= mae(y, p)

    def test_mean_normalisation(self):
        y_true = np.array([10.0, 30.0])  # mean 20
        y_pred = np.array([12.0, 32.0])  # rmse 2
        assert nrmse(y_true, y_pred) == pytest.approx(0.1)

    def test_range_normalisation(self):
        y_true = np.array([10.0, 30.0])  # range 20
        y_pred = np.array([12.0, 32.0])
        assert nrmse(y_true, y_pred, normalization="range") == pytest.approx(0.1)

    def test_unknown_normalisation(self):
        with pytest.raises(RegressionError):
            nrmse(np.array([1.0, 2.0]), np.array([1.0, 2.0]), normalization="z")

    def test_zero_mean_rejected(self):
        with pytest.raises(RegressionError):
            nrmse(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RegressionError):
            mae(np.ones(3), np.ones(4))

    def test_error_report(self):
        report = ErrorReport.from_predictions(
            np.array([10000.0, 20000.0]), np.array([11000.0, 19000.0])
        )
        assert report.mae_kj == pytest.approx(1.0)
        assert report.nrmse_percent == pytest.approx(1000.0 / 15000.0 * 100.0)
        assert report.rmse_mae_spread_j == pytest.approx(report.rmse_j - report.mae_j)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=2, max_size=30),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=30)
    def test_nrmse_scale_invariant(self, values, scale):
        y = np.asarray(values)
        p = y * 1.05
        assert nrmse(y * scale, p * scale) == pytest.approx(nrmse(y, p), rel=1e-9)


class TestSplitRuns:
    def test_every_stratum_in_training(self):
        groups = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
        split = split_runs(groups, training_fraction=0.2)
        train_groups = {groups[i] for i in split.train_indices}
        assert train_groups == {"a", "b", "c"}

    def test_twenty_percent_share(self):
        groups = ["s"] * 10
        split = split_runs(groups, training_fraction=0.2)
        assert len(split.train_indices) == 2
        assert len(split.test_indices) == 8

    def test_no_overlap_full_cover(self):
        groups = ["a"] * 7 + ["b"] * 5
        split = split_runs(groups)
        train, test = set(split.train_indices), set(split.test_indices)
        assert not train & test
        assert train | test == set(range(12))

    def test_never_consumes_whole_stratum(self):
        split = split_runs(["a", "a"], training_fraction=0.9)
        assert len(split.train_indices) == 1

    def test_deterministic_default(self):
        groups = ["a"] * 10 + ["b"] * 10
        assert split_runs(groups) == split_runs(groups)

    def test_partition_helper(self):
        groups = ["a"] * 4
        split = split_runs(groups, training_fraction=0.25)
        train, test = split.partition(list("wxyz"))
        assert len(train) == 1 and len(test) == 3

    def test_empty_rejected(self):
        with pytest.raises(RegressionError):
            split_runs([])

    def test_bad_fraction_rejected(self):
        with pytest.raises(RegressionError):
            split_runs(["a", "b"], training_fraction=1.0)


class TestBias:
    def test_paper_direction(self):
        # m-pair trains at high idle; porting to the low-idle o-pair must
        # *reduce* the constant.
        c2 = rebias_constant(708.3, trained_idle_w=457.0, deployed_idle_w=112.75)
        assert c2 == pytest.approx(708.3 - 344.25)

    def test_identity_when_same_idle(self):
        assert rebias_constant(500.0, 455.0, 455.0) == 500.0

    def test_rejects_nonpositive_idle(self):
        with pytest.raises(RegressionError):
            rebias_constant(500.0, 0.0, 100.0)
