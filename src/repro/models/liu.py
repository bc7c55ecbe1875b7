"""The LIU comparison model (Eqs. 9–10).

Liu et al. [4] model migration energy as linear in the amount of data
exchanged between the hosts::

    E_migr = α · DATA + C

Their paper derives DATA analytically from memory size, transmission rate
and dirtying ratio summed over pre-copy rounds (Eq. 10); De Maio et al.
instead "use the amount of data transferred measured with our network
instrumentation as the DATA value", which is what our samples carry in
``data_bytes`` (the simulated network instrumentation sums the bytes of
every transfer round).

The model's strength is exactly what Eq. 10 encodes — high-dirtying-ratio
live migrations move more data and cost more energy — and its weakness is
everything CPU: all CPULOAD variation collapses onto a single DATA value,
which is why Table VII shows LIU trailing the CPU-aware models.  It also
fits *one* (α, C) per host role here; the original assumes source and
target consume identically, an assumption the paper criticises via [21],
so keeping per-role coefficients is the charitable reading.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ModelError, NotFittedError
from repro.models.base import EnergyPrediction, MigrationEnergyModel
from repro.models.features import HostRole, MigrationSample
from repro.regression.linear import fit_nonnegative

__all__ = ["LiuModel"]


class LiuModel(MigrationEnergyModel):
    """Energy linear in transferred data, one (α, C) per host role."""

    name = "LIU"
    power_level = False

    def __init__(self) -> None:
        self._coefficients: dict[HostRole, tuple[float, float]] | None = None

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """Whether (α, C) pairs are available."""
        return self._coefficients is not None

    @property
    def coefficients(self) -> dict[HostRole, tuple[float, float]]:
        """Fitted ``{role: (alpha, C)}`` with α in J/byte and C in J."""
        if self._coefficients is None:
            raise NotFittedError("LIU has not been fitted")
        return dict(self._coefficients)

    # ------------------------------------------------------------------
    def fit(self, samples: Sequence[MigrationSample]) -> "LiuModel":
        """Fit per-role (α, C) on (DATA, total energy) pairs."""
        if not samples:
            raise ModelError("cannot fit LIU on an empty sample set")
        fitted: dict[HostRole, tuple[float, float]] = {}
        for role, role_samples in self.split_roles(samples).items():
            if len(role_samples) < 2:
                raise ModelError(
                    f"LIU needs >= 2 migrations for role {role.value}, "
                    f"got {len(role_samples)}"
                )
            data = np.array([s.data_bytes for s in role_samples], dtype=np.float64)
            energy = np.array([s.energy_total_j for s in role_samples])
            X = np.column_stack([data, np.ones_like(data)])
            fit = fit_nonnegative(X, energy)
            fitted[role] = (float(fit.coefficients[0]), float(fit.coefficients[1]))
        self._coefficients = fitted
        return self

    # ------------------------------------------------------------------
    def predict_energy(self, sample: MigrationSample) -> EnergyPrediction:
        """``α · DATA + C``; attributed to the transfer phase.

        LIU has no phase decomposition; the whole prediction is reported
        under transfer (where the data movement happens) so per-phase
        tables remain well-defined for every model.
        """
        self._require_fitted()
        assert self._coefficients is not None
        alpha, c = self._coefficients[sample.role]
        total = alpha * float(sample.data_bytes) + c
        return EnergyPrediction(initiation_j=0.0, transfer_j=total, activation_j=0.0)
