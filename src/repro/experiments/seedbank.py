"""Retired batch-interior entry point, kept as a name only.

``ScenarioRunner.run_batch`` has one interior: the per-run loop over
``run_once``.  The paper-campaign benchmark's span table
(``perfbench/spans.py``) still names ``SeedBank.execute``.  The tracer
itself skips a name that does not resolve, but the benchmark's tracer test
and the CI perf-smoke step both expect every listed name to resolve, so
this class survives as a thin alias of ``run_batch`` until that table
drops it.  Nothing in the program calls it.
"""

from __future__ import annotations

__all__ = ["SeedBank"]


class SeedBank:
    """``runner.run_batch(scenario, indices, on_run)`` under its old name."""

    def __init__(self, runner, scenario, indices, on_run=None) -> None:
        self.runner = runner
        self.scenario = scenario
        self.indices = list(indices)
        self.on_run = on_run

    def execute(self) -> list:
        """The batch's results, in ``indices`` order."""
        return self.runner.run_batch(self.scenario, self.indices, on_run=self.on_run)
