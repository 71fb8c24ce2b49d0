"""Hyperparameter sweeps over the "set empirically" knobs.

Table 1 annotates several values as empirical choices (target-network
period C, activation, learning rate).  This driver sweeps one knob at a
time with everything else pinned, reporting the training-curve shape and
docking outcomes per setting -- the study the paper defers.  Sweeping
``variant`` (``repro sweep variant dqn ddqn dueling ...``) is Section
5's algorithm-variant comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.config import DQNDockingConfig
from repro.experiments.figure4 import Figure4Result, run_figure4_experiment
from repro.utils.tables import render_table


@dataclass
class SweepResult:
    """Outcomes per swept value."""

    parameter: str
    results: dict[Any, Figure4Result] = field(default_factory=dict)

    def best_setting(self) -> Any:
        """The swept value with the highest best docking score."""
        return max(
            self.results, key=lambda v: self.results[v].history.best_score
        )

    def summary(self) -> str:
        """Comparison table across the sweep."""
        rows = []
        for value, result in self.results.items():
            s = result.shape()
            h = result.history
            rows.append(
                (
                    str(value),
                    f"{h.best_score:.2f}",
                    f"{s.peak:.2f}",
                    f"{s.last:.2f}",
                    f"{h.docking_success_rate(2.0):.0%}",
                    "yes" if s.paper_shape else "no",
                )
            )
        return render_table(
            (
                self.parameter,
                "best score",
                "peak Q",
                "final Q",
                "success@2A",
                "rise+decline",
            ),
            rows,
            title=f"Sweep over {self.parameter}",
            align=("l", "r", "r", "r", "r", "l"),
        )


def run_sweep(
    base: DQNDockingConfig,
    parameter: str,
    values: Sequence[Any],
    *,
    runtime=None,
) -> SweepResult:
    """Train one agent per value of ``parameter`` (other knobs pinned).

    ``parameter`` must be a field of :class:`DQNDockingConfig`; unknown
    names raise immediately rather than silently sweeping nothing.
    With a :class:`~repro.runtime.loop.RuntimeContext`, each setting
    trains under its own ``sweep-<parameter>-<value>`` checkpoint
    phase, so an interrupted sweep resumes at the setting it stopped in.
    """
    if not values:
        raise ValueError("values must be non-empty")
    if not hasattr(base, parameter):
        raise ValueError(f"unknown config field {parameter!r}")
    out = SweepResult(parameter=parameter)
    for value in values:
        cfg = base.replace(**{parameter: value})
        out.results[value] = run_figure4_experiment(
            cfg, runtime=runtime, phase=f"sweep-{parameter}-{value}"
        )
    return out
