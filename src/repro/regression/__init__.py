"""Regression machinery (subsystem S8).

Implements the paper's fitting pipeline (Section VI-F):

* :mod:`repro.regression.linear` — ordinary and non-negative least
  squares on design matrices (every model is linear in its coefficients);
* :mod:`repro.regression.training` — the 20 % training split over the
  m01–m02 readings and the per-phase fitting orchestration helpers;
* :mod:`repro.regression.bias` — the C1 → C2 idle-power bias correction
  used to port coefficients to the o1–o2 pair;
* :mod:`repro.regression.metrics` — MAE, RMSE and NRMSE exactly as
  reported in Tables V and VII.
"""

from repro.regression.bias import rebias_constant
from repro.regression.linear import fit_linear, fit_nonnegative
from repro.regression.metrics import ErrorReport, mae, nrmse, rmse
from repro.regression.training import TrainTestSplit, split_runs

__all__ = [
    "rebias_constant",
    "fit_linear",
    "fit_nonnegative",
    "ErrorReport",
    "mae",
    "nrmse",
    "rmse",
    "TrainTestSplit",
    "split_runs",
]
