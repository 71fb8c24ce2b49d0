"""Bench: Section 4's framing -- DQN vs Monte Carlo vs metaheuristics.

The paper's stated success criterion is matching "state-of-the-art Monte
Carlo optimization"; its honest Section 4/5 result is that DQN-Docking is
*not there yet*.  This bench reproduces both halves: classical optimizers
reach near-crystal scores under a fixed evaluation budget, and the
early-stage DQN trails them -- the expected ordering, asserted.
"""

import pytest

from repro.config import ci_scale_config
from repro.experiments.baselines import run_baseline_comparison

BASELINE_CFG = ci_scale_config(episodes=40, seed=0, learning_rate=0.002)


@pytest.fixture(scope="module")
def comparison():
    return run_baseline_comparison(
        BASELINE_CFG,
        budget=1200,
        strategies=("montecarlo", "local", "scatter", "ga"),
    )


def test_bench_full_comparison(benchmark):
    result = benchmark.pedantic(
        run_baseline_comparison,
        args=(BASELINE_CFG,),
        kwargs={"budget": 600, "strategies": ("montecarlo", "local")},
        rounds=1,
        iterations=1,
    )
    assert len(result.results) == 3


def test_classical_optimizers_near_crystal(comparison):
    """MC and local search must reach a large fraction of the crystal
    score under the budget (the paper's 'state of the art' bar)."""
    print("\n" + comparison.summary())
    for name in ("montecarlo", "metaheuristic-local"):
        (r,) = [r for r in comparison.results if r.method == name]
        assert r.best_score > 0.5 * comparison.crystal_score, name


def test_dqn_is_early_stage(comparison):
    """The paper's honest result: the DQN does not yet beat the best
    classical optimizer under an equal budget."""
    (dqn,) = [r for r in comparison.results if r.method == "dqn-docking"]
    best_classical = max(
        r.best_score
        for r in comparison.results
        if r.method != "dqn-docking"
    )
    print(
        f"\ndqn={dqn.best_score:.1f}  best classical={best_classical:.1f}"
    )
    assert dqn.best_score <= best_classical * 1.1  # allow near-ties


def test_dqn_better_than_nothing(comparison):
    """The agent must still find positive-score poses (it learns
    *something* -- Figure 4's rising phase)."""
    (dqn,) = [r for r in comparison.results if r.method == "dqn-docking"]
    assert dqn.best_score > 0.0


def test_budgets_comparable(comparison):
    """Evaluation-fairness: no method may exceed ~2x the median budget."""
    evals = sorted(r.evaluations for r in comparison.results)
    median = evals[len(evals) // 2]
    assert evals[-1] <= 2.5 * median
