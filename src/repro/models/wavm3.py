"""WAVM3 — the paper's Workload-Aware VM Migration energy Model.

Per host role ``h ∈ {source, target}`` and phase, instantaneous power is
modelled linearly in the workload features (Section IV-C):

* **Initiation** (Eq. 5)::

      P(i) = α(i)·CPU(h,t) + β(i)·CPU(v,t) + C(i)

* **Transfer** (Eq. 6)::

      P(t) = α(t)·CPU(h,t) + β(t)·BW(S,T,t) + γ(t)·DR(v,t)
           + δ(t)·CPU(v,t) + C(t)

* **Activation** (Eq. 7)::

      P(a) = α(a)·CPU(h,t) + β(a)·CPU(v,t) + C(a)

Energy is the integral of phase power over the phase interval (Eqs. 3–4).
The live/non-live distinction needs no separate coefficient sets: in a
non-live migration the VM is suspended, so ``CPU(v,t)`` and ``DR(v,t)``
are identically zero and those terms drop out — exactly why Tables III
and IV share most coefficients.

Fitting follows Section VI-F: pooled readings per (role, phase), least
squares with non-negativity bounds (the paper's NLLS with physically
meaningful coefficients), on the 20 % training split.  Cross-testbed
porting uses the C1→C2 idle-bias correction of
:mod:`repro.regression.bias`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ModelError, NotFittedError
from repro.models.base import EnergyPrediction, MigrationEnergyModel
from repro.models.features import (
    HostRole,
    MigrationSample,
    integrate_predicted_power,
)
from repro.phases.timeline import MigrationPhase
from repro.regression.bias import rebias_constant
from repro.regression.linear import fit_linear, fit_nonnegative

__all__ = ["Wavm3Coefficients", "Wavm3Model", "PHASE_FEATURES"]

#: Feature columns per phase, in design-matrix order ("const" must be last).
PHASE_FEATURES: dict[MigrationPhase, tuple[str, ...]] = {
    MigrationPhase.INITIATION: ("cpu_host", "cpu_vm", "const"),
    MigrationPhase.TRANSFER: ("cpu_host", "bw", "dr", "cpu_vm", "const"),
    MigrationPhase.ACTIVATION: ("cpu_host", "cpu_vm", "const"),
}

#: Greek names used by the paper for each (phase, feature) pair — for reports.
PAPER_SYMBOLS: dict[MigrationPhase, dict[str, str]] = {
    MigrationPhase.INITIATION: {"cpu_host": "alpha", "cpu_vm": "beta", "const": "C"},
    MigrationPhase.TRANSFER: {
        "cpu_host": "alpha",
        "bw": "beta",
        "dr": "gamma",
        "cpu_vm": "delta",
        "const": "C",
    },
    MigrationPhase.ACTIVATION: {"cpu_host": "alpha", "cpu_vm": "beta", "const": "C"},
}

#: Near-zero column detection threshold (feature never active in a phase).
_ZERO_COLUMN_TOL = 1e-12


def _feature_matrix(
    samples: Sequence[MigrationSample],
    phase: MigrationPhase,
    disabled: frozenset[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Pool the readings of one phase across samples into (X, y)."""
    columns = PHASE_FEATURES[phase]
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    for sample in samples:
        mask = sample.phase_mask(phase)
        if not mask.any():
            continue
        stack = []
        for name in columns:
            if name == "const":
                stack.append(np.ones(int(mask.sum())))
            elif name in disabled:
                stack.append(np.zeros(int(mask.sum())))
            else:
                stack.append(np.asarray(_column(sample, name))[mask])
        xs.append(np.column_stack(stack))
        ys.append(np.asarray(sample.power_w)[mask])
    if not xs:
        raise ModelError(f"no readings available for phase {phase.value}")
    return np.concatenate(xs, axis=0), np.concatenate(ys)


def _column(sample: MigrationSample, name: str) -> np.ndarray:
    if name == "cpu_host":
        return np.asarray(sample.cpu_host_pct)
    if name == "cpu_vm":
        return np.asarray(sample.cpu_vm_pct)
    if name == "bw":
        return np.asarray(sample.bw_bps)
    if name == "dr":
        return np.asarray(sample.dr_pct)
    raise ModelError(f"unknown feature {name!r}")


@dataclass(frozen=True)
class Wavm3Coefficients:
    """Fitted coefficients: role → phase → feature → value.

    The mapping layout mirrors Tables III/IV; :meth:`rebias` produces the
    C2 variant for a deployment pair with a different idle draw.
    """

    values: Mapping[HostRole, Mapping[MigrationPhase, Mapping[str, float]]]
    trained_idle_w: float = 0.0

    def coefficient(self, role: HostRole, phase: MigrationPhase, feature: str) -> float:
        """One named coefficient (paper symbol resolved via PAPER_SYMBOLS)."""
        try:
            return float(self.values[role][phase][feature])
        except KeyError:
            raise ModelError(
                f"no coefficient for role={role.value} phase={phase.value} "
                f"feature={feature!r}"
            ) from None

    def rebias(self, deployed_idle_w: float) -> "Wavm3Coefficients":
        """Port constants to a machine pair with a different idle power.

        Implements the paper's C1 → C2 adjustment on every phase constant;
        power-level constants cannot go below zero, so the shift clamps.
        """
        if self.trained_idle_w <= 0:
            raise ModelError("training idle power unknown; cannot rebias")
        shifted: dict[HostRole, dict[MigrationPhase, dict[str, float]]] = {}
        for role, phases in self.values.items():
            shifted[role] = {}
            for phase, coefs in phases.items():
                updated = dict(coefs)
                updated["const"] = max(
                    0.0,
                    rebias_constant(coefs["const"], self.trained_idle_w, deployed_idle_w),
                )
                shifted[role][phase] = updated
        return Wavm3Coefficients(values=shifted, trained_idle_w=deployed_idle_w)

class Wavm3Model(MigrationEnergyModel):
    """The paper's model, ready to fit and predict.

    Parameters
    ----------
    method:
        ``"nonnegative"`` (default; bounded least squares, physically
        meaningful coefficients) or ``"ols"`` (unconstrained).
    disabled_features:
        Feature names forced to zero — the ablation hook for DESIGN.md's
        D1 (``{"bw"}``) and D2 (``{"dr"}``) studies.
    """

    name = "WAVM3"
    power_level = True

    def __init__(
        self,
        method: str = "nonnegative",
        disabled_features: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        if method not in ("nonnegative", "ols"):
            raise ModelError(f"unknown fit method {method!r}")
        bad = set(disabled_features) - {"cpu_host", "cpu_vm", "bw", "dr"}
        if bad:
            raise ModelError(f"unknown features to disable: {sorted(bad)}")
        self._method = method
        self._disabled = frozenset(disabled_features)
        self._coefficients: Wavm3Coefficients | None = None

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """Whether coefficients are available."""
        return self._coefficients is not None

    @property
    def coefficients(self) -> Wavm3Coefficients:
        """The fitted (or externally supplied) coefficient set."""
        if self._coefficients is None:
            raise NotFittedError("WAVM3 has not been fitted")
        return self._coefficients

    def with_coefficients(self, coefficients: Wavm3Coefficients) -> "Wavm3Model":
        """Install an explicit coefficient set (e.g. rebias output)."""
        clone = Wavm3Model(method=self._method, disabled_features=self._disabled)
        clone._coefficients = coefficients
        return clone

    # ------------------------------------------------------------------
    def fit(self, samples: Sequence[MigrationSample]) -> "Wavm3Model":
        """Fit per-role, per-phase coefficients on pooled readings."""
        if not samples:
            raise ModelError("cannot fit WAVM3 on an empty sample set")
        by_role = self.split_roles(samples)
        fitted: dict[HostRole, dict[MigrationPhase, dict[str, float]]] = {}
        for role, role_samples in by_role.items():
            if not role_samples:
                raise ModelError(f"no samples for role {role.value}")
            fitted[role] = {}
            for phase, columns in PHASE_FEATURES.items():
                X, y = _feature_matrix(role_samples, phase, self._disabled)
                coefs = self._fit_phase(X, y)
                fitted[role][phase] = dict(zip(columns, (float(c) for c in coefs)))
        trained_idle = float(
            np.mean([s.notes.get("idle_power_w", 0.0) for s in samples])
        )
        self._coefficients = Wavm3Coefficients(values=fitted, trained_idle_w=trained_idle)
        return self

    def _fit_phase(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Features that are never active in this phase/role (all-zero
        # columns) are unidentifiable: drop them and pin the coefficient
        # at 0, exactly how the paper's tables show β(i)=0 on the target.
        scales = np.max(np.abs(X), axis=0)
        active = scales > _ZERO_COLUMN_TOL
        reduced = X[:, active]
        if reduced.shape[1] == 0:
            raise ModelError("design matrix has no active columns")
        fitter = fit_nonnegative if self._method == "nonnegative" else fit_linear
        fit = fitter(reduced, y)
        coefs = np.zeros(X.shape[1])
        coefs[active] = fit.coefficients
        return coefs

    # ------------------------------------------------------------------
    def predict_power(self, sample: MigrationSample) -> np.ndarray:
        """Per-reading power prediction over the migration window (W)."""
        self._require_fitted()
        assert self._coefficients is not None
        role_coefs = self._coefficients.values[sample.role]
        predicted = np.zeros(sample.n_readings)
        for phase, columns in PHASE_FEATURES.items():
            mask = sample.phase_mask(phase)
            if not mask.any():
                continue
            coefs = role_coefs[phase]
            acc = np.full(int(mask.sum()), coefs["const"], dtype=np.float64)
            for name in columns:
                if name == "const" or name in self._disabled:
                    continue
                acc += coefs[name] * _column(sample, name)[mask]
            predicted[mask] = acc
        return predicted

    def predict_energy(self, sample: MigrationSample) -> EnergyPrediction:
        """Integrate predicted power per phase (Eqs. 3–4)."""
        power = self.predict_power(sample)
        times = np.asarray(sample.times)
        energies = {
            phase: integrate_predicted_power(times, power, sample.phase_mask(phase))
            for phase in PHASE_FEATURES
        }
        return EnergyPrediction(
            initiation_j=energies[MigrationPhase.INITIATION],
            transfer_j=energies[MigrationPhase.TRANSFER],
            activation_j=energies[MigrationPhase.ACTIVATION],
        )
