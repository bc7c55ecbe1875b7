"""The per-migration sample format consumed by every energy model.

A :class:`MigrationSample` is one (migration run, host role) pair with
everything a model may use, in the paper's units:

* aligned per-reading arrays on the power meter's grid over ``[ms, me]``:
  measured power (W), phase codes, host CPU ``CPU(h,t)`` (%), migrating-VM
  CPU ``CPU(v,t)`` (%), transfer bandwidth ``BW(S,T,t)`` (bytes/s) and
  dirtying ratio ``DR(v,t)`` (%);
* per-migration scalars: transferred data (B, LIU's input), VM memory
  size (MB) and mean transfer bandwidth (STRUNK's inputs);
* the measured phase energies (J) the models are scored against.

Samples are built by the experiment harness from instrumented runs
(:func:`repro.experiments.results.RunResult.sample_for`) but the format
itself is simulator-agnostic: fill it from real dstat + meter logs and
the same models fit unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.phases.timeline import MigrationPhase

__all__ = ["HostRole", "PHASE_CODES", "MigrationSample"]


class HostRole(enum.Enum):
    """Which end of the migration a sample describes."""

    SOURCE = "source"
    TARGET = "target"


#: Integer codes used in the per-reading ``phase`` array.
PHASE_CODES: dict[MigrationPhase, int] = {
    MigrationPhase.INITIATION: 0,
    MigrationPhase.TRANSFER: 1,
    MigrationPhase.ACTIVATION: 2,
}

#: Reverse mapping of :data:`PHASE_CODES`.
CODE_PHASES: dict[int, MigrationPhase] = {v: k for k, v in PHASE_CODES.items()}


@dataclass(frozen=True)
class MigrationSample:
    """One (migration run, host role) observation set.

    All arrays are aligned to the meter's reading grid restricted to
    ``[ms, me]`` and share the same length.
    """

    # --- identity -------------------------------------------------------
    scenario: str
    experiment: str
    live: bool
    family: str
    role: HostRole
    run_index: int

    # --- per-reading arrays ----------------------------------------------
    times: np.ndarray
    power_w: np.ndarray
    phase: np.ndarray           # int codes per PHASE_CODES
    cpu_host_pct: np.ndarray
    cpu_vm_pct: np.ndarray
    bw_bps: np.ndarray
    dr_pct: np.ndarray

    # --- per-migration scalars --------------------------------------------
    data_bytes: float           # total transferred state (LIU)
    mem_mb: float               # VM memory size (STRUNK)
    mean_bw_bps: float          # mean transfer bandwidth (STRUNK)

    # --- measured energies (J) --------------------------------------------
    energy_initiation_j: float
    energy_transfer_j: float
    energy_activation_j: float

    downtime_s: float = 0.0
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arrays = (
            self.times, self.power_w, self.phase,
            self.cpu_host_pct, self.cpu_vm_pct, self.bw_bps, self.dr_pct,
        )
        lengths = {np.asarray(a).shape for a in arrays}
        if len(lengths) != 1 or next(iter(lengths)) == (0,):
            raise ModelError(
                f"sample arrays must be non-empty and aligned, got shapes "
                f"{[np.asarray(a).shape for a in arrays]}"
            )
        if np.any(np.diff(np.asarray(self.times)) <= 0):
            raise ModelError("sample times must be strictly increasing")

    # ------------------------------------------------------------------
    @property
    def n_readings(self) -> int:
        """Number of meter readings in the migration window."""
        return int(np.asarray(self.times).size)

    @property
    def energy_total_j(self) -> float:
        """Measured migration energy: sum of the three phase energies (Eq. 4)."""
        return (
            self.energy_initiation_j
            + self.energy_transfer_j
            + self.energy_activation_j
        )

    def phase_mask(self, phase: MigrationPhase) -> np.ndarray:
        """Boolean mask of readings belonging to one phase."""
        try:
            code = PHASE_CODES[phase]
        except KeyError:
            raise ModelError(f"{phase} is not a migration phase with readings") from None
        return np.asarray(self.phase) == code

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MigrationSample {self.scenario!r} {self.role.value} "
            f"{'live' if self.live else 'non-live'} n={self.n_readings} "
            f"E={self.energy_total_j / 1000:.1f}kJ>"
        )


def integrate_predicted_power(
    times: np.ndarray, predicted_w: np.ndarray, mask: np.ndarray
) -> float:
    """Trapezoidal energy of a predicted power series over a phase mask.

    Contiguous masked readings are integrated with the trapezoidal rule;
    this mirrors how the measured phase energies are computed from the
    meter trace, so predicted and measured energies are comparable.
    """
    times = np.asarray(times, dtype=np.float64)
    predicted_w = np.asarray(predicted_w, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.sum() < 2:
        # A phase shorter than two readings contributes via its neighbours'
        # trapezoids; approximate with reading-dt rectangles.
        if mask.sum() == 0:
            return 0.0
        dt = float(np.median(np.diff(times))) if times.size > 1 else 0.0
        return float(predicted_w[mask].sum() * dt)
    t = times[mask]
    p = predicted_w[mask]
    return float(np.trapezoid(p, t))
