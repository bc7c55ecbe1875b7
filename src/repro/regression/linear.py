"""Linear least-squares fitting on design matrices.

Two flavours back the energy models:

* :func:`fit_linear` — ordinary least squares via ``numpy.linalg.lstsq``
  (minimum-norm solution under rank deficiency);
* :func:`fit_nonnegative` — bound-constrained least squares keeping every
  coefficient ≥ 0.  The paper's fitted coefficients (Tables III–VI) are
  non-negative power/energy sensitivities; the constraint prevents the
  collinearity between host CPU and VM CPU from producing sign-flipped,
  physically meaningless estimates.  Solved exactly by the Lawson–Hanson
  active-set method on unit-norm columns, so a ``bw_bps`` column next to
  CPU percentages does not skew the solver's tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RegressionError

__all__ = ["LinearFit", "fit_linear", "fit_nonnegative"]

#: Subproblem solves allowed per column before :func:`fit_nonnegative`
#: gives up (Lawson–Hanson typically needs about one per column).
_ITERATIONS_PER_COLUMN = 10


@dataclass(frozen=True)
class LinearFit:
    """Result of a least-squares fit ``y ≈ X @ coefficients``."""

    coefficients: np.ndarray
    residual_norm: float
    n_samples: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the fitted linear map on a design matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.coefficients.size:
            raise RegressionError(
                f"design matrix has {X.shape} columns, fit expects "
                f"{self.coefficients.size}"
            )
        return X @ self.coefficients


def _validate_design(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise RegressionError(f"design matrix must be 2-D, got shape {X.shape}")
    if y.ndim != 1 or y.size != X.shape[0]:
        raise RegressionError(
            f"response shape {y.shape} incompatible with design {X.shape}"
        )
    if X.shape[0] < X.shape[1]:
        raise RegressionError(
            f"under-determined fit: {X.shape[0]} samples for {X.shape[1]} coefficients"
        )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise RegressionError("design matrix / response contain non-finite values")
    return X, y


def fit_linear(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Ordinary least squares (minimum-norm under rank deficiency)."""
    X, y = _validate_design(X, y)
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    residual = float(np.linalg.norm(X @ coef - y))
    return LinearFit(coefficients=coef, residual_norm=residual, n_samples=X.shape[0])


def _lawson_hanson(A: np.ndarray, b: np.ndarray, max_iterations: int) -> np.ndarray:
    """``argmin ‖A x − b‖`` over ``x ≥ 0`` (Lawson & Hanson, 1974, ch. 23).

    The passive set ``P`` holds the free coefficients; every other
    coefficient sits on its bound 0.  Each outer step frees the bound
    coefficient with the largest descent ``Aᵀ(b − A x)`` (the negative
    gradient of ``½‖A x − b‖²``); the inner loop walks back towards the
    feasible region, binding coefficients that reach 0, until the
    unconstrained fit on ``P`` is strictly positive.  Raises
    :class:`RegressionError` after ``max_iterations`` subproblem solves.
    """
    m, n = A.shape
    tolerance = 10.0 * max(m, n) * np.finfo(np.float64).eps * float(np.linalg.norm(b))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    descent = A.T @ b
    iterations = 0

    def solve_passive() -> np.ndarray:
        nonlocal iterations
        iterations += 1
        if iterations > max_iterations:
            raise RegressionError(
                f"non-negative least squares did not converge in {max_iterations} "
                "iterations"
            )
        s = np.zeros(n)
        s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        return s

    while True:
        candidates = np.where(passive, -np.inf, descent)
        j = int(np.argmax(candidates))
        if candidates[j] <= tolerance:
            return x
        passive[j] = True
        s = solve_passive()
        if s[j] <= 0.0:
            # Column j is numerically dependent on the passive columns:
            # freeing it cannot lower the residual.  Leave it bound.
            passive[j] = False
            descent[j] = 0.0
            continue
        while np.any(s[passive] <= 0.0):
            blocking = passive & (s <= 0.0)
            ratios = x[blocking] / (x[blocking] - s[blocking])
            step = float(np.min(ratios))
            x += step * (s - x)
            passive[np.flatnonzero(blocking)[np.argmin(ratios)]] = False
            passive &= x > 0.0
            x[~passive] = 0.0
            s = solve_passive()
        x = s
        descent = A.T @ (b - A @ x)


def fit_nonnegative(X: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least squares with every coefficient constrained to be ≥ 0.

    Raises :class:`RegressionError` if the active-set solver does not
    converge within its iteration cap.
    """
    X, y = _validate_design(X, y)
    scales = np.linalg.norm(X, axis=0)
    scales[scales == 0.0] = 1.0
    coef = _lawson_hanson(X / scales, y, _ITERATIONS_PER_COLUMN * X.shape[1]) / scales
    residual = float(np.linalg.norm(X @ coef - y))
    return LinearFit(coefficients=coef, residual_norm=residual, n_samples=X.shape[0])
