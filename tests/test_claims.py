"""The Table VII claim margins and the multi-seed claim sweep tool.

The claims are defined twice — once in :mod:`repro.analysis.claims` for
the sweep, once in ``perfbench/workloads.py`` for the benchmark's
correctness gate — so a test pins the two to identical margins on a real
(small) campaign.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.analysis import claims
from repro.analysis.comparison import compare_models
from repro.experiments.design import all_scenarios
from repro.experiments.runner import ScenarioRunner

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


perfbench_workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
claim_sweep = _load("claim_sweep", ROOT / "tools" / "claim_sweep.py")


@pytest.fixture(scope="module")
def small_comparison():
    """Table VII on three non-live and three live m-pair scenarios."""
    scenarios = all_scenarios("m")
    scenarios = [s for s in scenarios if not s.live][:3] + [s for s in scenarios if s.live][:3]
    result = ScenarioRunner(seed=5).run_campaign(scenarios, min_runs=3, max_runs=3)
    return compare_models(result=result, seed=5, training_fraction=claims.TRAINING_FRACTION)


def test_margins_identical_to_perfbench_definitions(small_comparison):
    ours = claims.table7_margins(small_comparison)
    assert list(ours) == list(claims.CLAIMS)
    assert ours == perfbench_workloads.table7_claims(small_comparison)
    assert claims.GATING_CLAIMS == perfbench_workloads.GATING_CLAIMS
    assert claims.TRAINING_FRACTION == perfbench_workloads.TRAINING_FRACTION


def test_paper_margins():
    """The paper's own Table VII, read through the same margins.  Its
    STRUNK non-live source cell (17.7) sits below 1.8x WAVM3 (11.8), so
    the paper itself misses ``liu_strunk_trail``; the rest hold."""
    paper = claims.paper_margins()
    assert paper["liu_strunk_trail"] == pytest.approx(17.7 - 1.8 * 11.8)
    assert paper["headline_gain"] == pytest.approx(36.2 - 5.0 - 15.0)
    assert paper["wavm3_matches_huang"] == pytest.approx(12.0 + 0.4 - 11.8)
    assert paper["live_source_gain"] == pytest.approx(15.7 - 11.8 - 0.3)
    assert paper["huang_degrades_more"] == pytest.approx(9234 / 2587 - 8432 / 2558)
    assert len(claims.PAPER_NRMSE) == 16


def test_parse_seeds():
    assert claim_sweep.parse_seeds("1-4,121") == [1, 2, 3, 4, 121]
    assert claim_sweep.parse_seeds("7, 3-4, 4") == [7, 3, 4]
    for bad in ("4-1", "x", "1-", "-3"):
        with pytest.raises(Exception):
            claim_sweep.parse_seeds(bad)


def _record(**margins):
    values = dict.fromkeys(claims.CLAIMS, 1.0)
    values.update(margins)
    return {
        "runs": 1, "seconds": 0.0, "margins": values,
        "nrmse": {"/".join(cell): 10.0 for cell in claims.PAPER_NRMSE},
        "waits": {90.0: (2, 1, 135.0), 120.0: (2, 0, 240.0)},
    }


def test_sweep_exit_status_follows_gating_claims(monkeypatch, capsys):
    outcomes = {
        1: _record(),
        2: _record(live_source_gain=-0.1),    # non-gating miss: still exit 0
        3: _record(headline_gain=-2.0),       # gating miss: exit 1
    }
    monkeypatch.setattr(claim_sweep, "sweep_seed", lambda seed: outcomes[seed])
    assert claim_sweep.main(["--seeds", "1-2"]) == 0
    out = capsys.readouterr().out
    assert "live_source_gain |     no |  1/2 |" in out
    assert "stabilisation waits ended by the rule: 1 of 4 waits (25.0 %); " \
        "mean wait 67.5 s of 90 s, 120.0 s of 120 s" in out
    assert "stabilisation waits over the sweep ended by the rule: 2 of 8 waits (25.0 %); " \
        "mean wait 67.5 s of 90 s, 120.0 s of 120 s" in out
    assert claim_sweep.main(["--seeds", "1-3"]) == 1
    out = capsys.readouterr().out
    assert "headline_gain at seed 3" in out
    assert "   headline_gain |    yes |  2/3 |" in out

