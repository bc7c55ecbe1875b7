"""The paper's Table VII claims as signed margins.

Section VII's headline reduces to five checkable statements about the
Table VII grid.  Each is expressed here as a *margin*: positive when the
claim holds, and by how much, so a sweep over master seeds can report not
just whether a claim passed but how close it came to failing.

* ``liu_strunk_trail`` — LIU and STRUNK trail far behind: every one of
  their NRMSE cells exceeds 1.8× WAVM3's;
* ``headline_gain`` — the largest WAVM3 improvement over any baseline
  exceeds 15 NRMSE points (the paper's "up to 24 %");
* ``wavm3_matches_huang`` — WAVM3 is within 0.4 points of HUANG (or
  better) on every cell;
* ``live_source_gain`` — WAVM3 beats HUANG on the live source by more
  than 0.3 points (paper: 11.8 vs 15.7);
* ``huang_degrades_more`` — HUANG's source RMSE grows more from non-live
  to live than WAVM3's.

Only :data:`GATING_CLAIMS` gate: their margins are tens of points at
every master seed measured, while the other three move by tenths of a
point from seed to seed (``live_source_gain`` misses at seeds 14 and 301
of the paper protocol), so gating on them would make correctness a
property of the seed.

The same margins evaluated on the paper's own Table VII numbers
(:func:`paper_margins`) give the reference a sweep is read against.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.comparison import ComparisonResult
from repro.models.coefficients import PAPER_TABLE_VII

__all__ = [
    "CELLS",
    "CLAIMS",
    "GATING_CLAIMS",
    "PAPER_NRMSE",
    "TRAINING_FRACTION",
    "claim_margins",
    "paper_margins",
    "table7_margins",
]

#: Paper's train/test split for Table VII (Section VII: 20 % training).
TRAINING_FRACTION = 0.2

#: The (kind, role) cells of Table VII.
CELLS = tuple((kind, role) for kind in ("non-live", "live") for role in ("source", "target"))

#: Claim names, in report order.
CLAIMS = (
    "liu_strunk_trail",
    "headline_gain",
    "wavm3_matches_huang",
    "live_source_gain",
    "huang_degrades_more",
)

#: Claims that hold at every master seed, so a miss is a defect.
GATING_CLAIMS = ("liu_strunk_trail", "headline_gain")

#: The paper's Table VII NRMSE cells, ``(model, kind, role) -> percent``.
PAPER_NRMSE = {
    (model, kind, role): PAPER_TABLE_VII[model][role][
        "nrmse_nonlive" if kind == "non-live" else "nrmse_live"
    ]
    for model in PAPER_TABLE_VII
    for kind, role in CELLS
}


def claim_margins(
    nrmse: Callable[[str, str, str], float],
    source_rmse: Callable[[str, str], float],
) -> dict[str, float]:
    """Margins of :data:`CLAIMS` over a Table VII grid.

    ``nrmse(model, kind, role)`` is one NRMSE cell in percent and
    ``source_rmse(model, kind)`` the source-host RMSE in joules.
    """
    def gain(other: str, kind: str, role: str) -> float:
        return nrmse(other, kind, role) - nrmse("WAVM3", kind, role)

    return {
        "liu_strunk_trail": min(
            nrmse(other, kind, role) - 1.8 * nrmse("WAVM3", kind, role)
            for other in ("LIU", "STRUNK")
            for kind, role in CELLS
        ),
        "headline_gain": max(
            gain(other, kind, role)
            for other in ("HUANG", "LIU", "STRUNK")
            for kind, role in CELLS
        ) - 15.0,
        "wavm3_matches_huang": min(
            nrmse("HUANG", kind, role) + 0.4 - nrmse("WAVM3", kind, role)
            for kind, role in CELLS
        ),
        "live_source_gain": gain("HUANG", "live", "source") - 0.3,
        "huang_degrades_more": (
            source_rmse("HUANG", "live") / source_rmse("HUANG", "non-live")
            - source_rmse("WAVM3", "live") / source_rmse("WAVM3", "non-live")
        ),
    }


def table7_margins(comparison: ComparisonResult) -> dict[str, float]:
    """Claim margins of a measured Table VII."""
    return claim_margins(
        comparison.nrmse_percent,
        lambda model, kind: comparison.errors[model][kind]["source"].rmse_j,
    )


def paper_margins() -> dict[str, float]:
    """Claim margins of the paper's own Table VII."""
    return claim_margins(
        lambda model, kind, role: PAPER_NRMSE[(model, kind, role)],
        lambda model, kind: PAPER_TABLE_VII[model]["source"][
            "rmse_nonlive_j" if kind == "non-live" else "rmse_live_j"
        ],
    )
