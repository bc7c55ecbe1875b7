#!/usr/bin/env python
"""Table VII claim sweep: the paper's claims checked over many master seeds.

For every master seed, runs the Section V-B m-pair campaign (the 42 Table
IIa scenarios, ``min_runs=10``, ``max_runs=16``, variance rule on),
compares the four models at the paper's 20 % training split, and records
the margin of every claim in :mod:`repro.analysis.claims`.  It then prints,
per claim, the pass rate and the min/median margin next to the margin on
the paper's own Table VII, and per Table VII cell the median NRMSE next to
the paper's.  Per seed and over the sweep it also prints how many of the
campaign's stabilisation waits ended by the paper's rule (20 readings within
0.3 %) rather than by running out their budget, and the mean wait per budget.

Exit status is 1 when a gating claim (``liu_strunk_trail``,
``headline_gain``) fails at any seed, else 0.

Usage (from the repository root)::

    PYTHONPATH=src python tools/claim_sweep.py --seeds 1-4
    PYTHONPATH=src python tools/claim_sweep.py --seeds 1,7,14,121
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.analysis import claims
from repro.analysis.comparison import compare_models
from repro.analysis.report import format_table
from repro.experiments.design import all_scenarios
from repro.experiments.runner import ScenarioRunner

#: The paper's Section V-B protocol: at least 10 runs per scenario, at most
#: 16 while the variance rule asks for more.
MIN_RUNS = 10
MAX_RUNS = 16


def parse_seeds(text: str) -> list[int]:
    """``"1-4,121"`` -> ``[1, 2, 3, 4, 121]`` (order kept, duplicates dropped)."""
    seeds: list[int] = []
    for part in text.split(","):
        low, sep, high = part.strip().partition("-")
        try:
            first = int(low)
            last = int(high) if sep else first
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}") from None
        if first < 0 or last < first:
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}")
        seeds.extend(s for s in range(first, last + 1) if s not in seeds)
    return seeds


def sweep_seed(seed: int) -> dict:
    """One campaign + Table VII at ``seed``: its claim margins and NRMSE cells."""
    began = time.perf_counter()
    runner = ScenarioRunner(seed=seed)
    result = runner.run_campaign(
        all_scenarios("m"), min_runs=MIN_RUNS, max_runs=MAX_RUNS
    )
    comparison = compare_models(
        result=result, seed=seed, training_fraction=claims.TRAINING_FRACTION
    )
    return {
        "runs": len(result.all_runs()),
        "seconds": round(time.perf_counter() - began, 2),
        "margins": claims.table7_margins(comparison),
        "nrmse": {
            "/".join(cell): comparison.nrmse_percent(*cell)
            for cell in claims.PAPER_NRMSE
        },
        "waits": {budget: tuple(tally) for budget, tally in runner.stabilisation_waits.items()},
    }


def describe_waits(waits: dict[float, tuple]) -> str:
    """``ended by the rule: N of M waits (P %); mean wait …`` of a tally.

    ``waits`` maps a wait budget to ``(waits, ended by the rule, seconds)``.
    """
    total = sum(tally[0] for tally in waits.values())
    ended = sum(tally[1] for tally in waits.values())
    share = 100.0 * ended / total if total else 0.0
    means = ", ".join(
        f"{tally[2] / tally[0]:.1f} s of {budget:g} s"
        for budget, tally in sorted(waits.items())
    )
    return f"ended by the rule: {ended} of {total} waits ({share:.1f} %); mean wait {means}"


def merge_waits(records: dict[int, dict]) -> dict[float, tuple]:
    """The per-budget wait tallies of every seed, summed."""
    merged: dict[float, list] = {}
    for record in records.values():
        for budget, tally in record["waits"].items():
            into = merged.setdefault(budget, [0, 0, 0.0])
            for i, value in enumerate(tally):
                into[i] += value
    return {budget: tuple(tally) for budget, tally in merged.items()}


def render(records: dict[int, dict]) -> str:
    """The per-claim and per-cell summary tables of a sweep."""
    paper = claims.paper_margins()
    claim_rows = []
    for name in claims.CLAIMS:
        margins = [record["margins"][name] for record in records.values()]
        passed = sum(margin > 0 for margin in margins)
        claim_rows.append((
            name,
            "yes" if name in claims.GATING_CLAIMS else "no",
            f"{passed}/{len(margins)}",
            min(margins),
            statistics.median(margins),
            paper[name],
        ))
    cell_rows = []
    for cell, reference in claims.PAPER_NRMSE.items():
        values = [record["nrmse"]["/".join(cell)] for record in records.values()]
        cell_rows.append((*cell, min(values), statistics.median(values), max(values), reference))
    return "\n\n".join((
        format_table(
            ("Claim", "Gating", "Pass", "Min margin", "Median margin", "Paper margin"),
            claim_rows,
            title=f"Table VII claims over {len(records)} master seeds "
            "(margin > 0: claim holds)",
            precision=2,
        ),
        format_table(
            ("Model", "Kind", "Host", "Min", "Median", "Max", "Paper"),
            cell_rows,
            title="Table VII NRMSE % over the sweep",
            precision=1,
        ),
    ))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="master seeds: N, A-B, or a comma list of those")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    records: dict[int, dict] = {}
    failures = []
    for seed in args.seeds:
        record = sweep_seed(seed)
        records[seed] = record
        margins = record["margins"]
        failed = [name for name in claims.GATING_CLAIMS if margins[name] <= 0]
        failures.extend((seed, name) for name in failed)
        shown = "  ".join(f"{name} {margins[name]:+.2f}" for name in claims.CLAIMS)
        print(f"seed {seed}: {record['runs']} runs, {record['seconds']:.1f} s  {shown}"
              + (f"  GATING FAIL: {', '.join(failed)}" if failed else ""), flush=True)
        print(f"  stabilisation waits {describe_waits(record['waits'])}", flush=True)
    print()
    print(render(records))
    print(f"\nstabilisation waits over the sweep {describe_waits(merge_waits(records))}")
    if failures:
        print("\ngating claims failed: "
              + ", ".join(f"{name} at seed {seed}" for seed, name in failures))
        return 1
    print(f"\ngating claims ({', '.join(claims.GATING_CLAIMS)}) hold at every seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
