"""Experiment drivers: one module per paper table/figure plus ablations.

Each driver is a pure function from a config to a result object with a
``summary()`` string, so tests assert on the result and benches time the
run while humans read the report.  The experiment <-> module map lives in
DESIGN.md; paper-vs-measured numbers land in EXPERIMENTS.md.
"""

from repro.experiments.table1 import render_table1, verify_paper_defaults
from repro.experiments.figure4 import (
    Figure4Result,
    run_figure4_experiment,
    curve_shape_metrics,
)
from repro.experiments.geometry import GeometryReport, run_geometry_experiment
from repro.experiments.baselines import (
    BaselineComparison,
    run_baseline_comparison,
)
from repro.experiments.ablations import (
    AblationResult,
    run_comm_ablation,
)
from repro.experiments.reward_ablation import (
    RewardAblationResult,
    RewardScheme,
    run_reward_ablation,
)
from repro.experiments.sweep import SweepResult, run_sweep
from repro.experiments.generalization import (
    GeneralizationResult,
    run_generalization_experiment,
)
from repro.experiments.curriculum import (
    CurriculumResult,
    run_curriculum_experiment,
)
from repro.experiments.reporting import generate_report

__all__ = [
    "render_table1",
    "verify_paper_defaults",
    "Figure4Result",
    "run_figure4_experiment",
    "curve_shape_metrics",
    "GeometryReport",
    "run_geometry_experiment",
    "BaselineComparison",
    "run_baseline_comparison",
    "AblationResult",
    "run_comm_ablation",
    "RewardAblationResult",
    "RewardScheme",
    "run_reward_ablation",
    "SweepResult",
    "run_sweep",
    "GeneralizationResult",
    "run_generalization_experiment",
    "CurriculumResult",
    "run_curriculum_experiment",
    "generate_report",
]
