#!/usr/bin/env python3
"""The full WAVM3 pipeline: campaign -> 20 % split -> fit -> compare.

Reproduces the paper's Section VI/VII workflow at reduced scale (three
runs per scenario instead of ten, for a quick demo):

1. run the Table IIa campaign on the simulated m01–m02 pair;
2. take the stratified 20 % training split of the runs;
3. fit WAVM3 per migration kind (Tables III/IV) and the three comparison
   models on the same training set (Table VI);
4. evaluate everything on the held-out runs (Table VII);
5. port WAVM3 to the o1–o2 pair with the C1→C2 rebias (Table V flavour).

Run:  python examples/model_training.py          (a few seconds)
"""

import numpy as np

from repro.analysis.comparison import compare_models
from repro.analysis.tables import render_table3_4, render_table6, render_table7
from repro.analysis.validation import fit_wavm3_per_kind
from repro.experiments.design import all_scenarios
from repro.experiments.runner import ScenarioRunner
from repro.models.features import HostRole
from repro.regression.metrics import ErrorReport

RUNS = 3
SEED = 21


def main() -> None:
    print(f"Running the Table IIa campaign on m01-m02 ({RUNS} runs/scenario)…")
    runner = ScenarioRunner(seed=SEED)
    campaign = runner.run_campaign(all_scenarios("m"), min_runs=RUNS, max_runs=RUNS)
    print(f"  {len(campaign.all_runs())} instrumented migrations recorded")

    train, test, _ = campaign.train_test_split(training_fraction=0.25)
    print(f"  training on {len(train)} runs, evaluating on {len(test)}\n")

    models = fit_wavm3_per_kind(train)
    print(render_table3_4(models["non-live"], live=False), "\n")
    print(render_table3_4(models["live"], live=True), "\n")

    comparison = compare_models(result=campaign, seed=SEED, training_fraction=0.25)
    print(render_table6(comparison), "\n")
    print(render_table7(comparison), "\n")

    # Cross-testbed port (Table V flavour, on a handful of o-pair runs).
    print("Porting the live model to o1-o2 with the C1->C2 rebias…")
    o_runner = ScenarioRunner(seed=SEED + 1)
    o_live = [s for s in all_scenarios("o") if s.live][:6]
    o_campaign = o_runner.run_campaign(o_live, min_runs=2, max_runs=2)
    o_samples = [
        run.sample_for(role)
        for run in o_campaign.all_runs()
        for role in (HostRole.SOURCE, HostRole.TARGET)
    ]
    live_model = models["live"]
    deployed_idle = float(np.mean([s.notes["idle_power_w"] for s in o_samples]))
    ported = live_model.with_coefficients(
        live_model.coefficients.rebias(deployed_idle)
    )
    raw = ErrorReport.from_predictions(
        live_model.measured_energies(o_samples),
        live_model.predict_energies(o_samples),
    )
    fixed = ErrorReport.from_predictions(
        ported.measured_energies(o_samples),
        ported.predict_energies(o_samples),
    )
    print(f"  without rebias: {raw}")
    print(f"  with rebias   : {fixed}")
    print("  (the constant overestimation the paper observed, and its fix)")


if __name__ == "__main__":
    main()
