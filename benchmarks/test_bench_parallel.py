"""Bench: METADOCK's parallel evaluation patterns.

- spot decomposition of the receptor surface;
- batched-vectorized pose scoring (data parallelism);
- the metaheuristic schema and Monte Carlo under a fixed budget;
- virtual screening of a ligand library through the screening driver.
"""

import numpy as np
import pytest

from repro.metadock.library import generate_library
from repro.metadock.metaheuristic import MetaheuristicSchema
from repro.metadock.montecarlo import MonteCarloConfig, MonteCarloOptimizer
from repro.metadock.spots import surface_spots
from repro.metadock.strategies import STRATEGY_PRESETS
from repro.scoring.composite import score_pose_batch
from repro.screening.driver import ScreeningConfig, run_screening

from benchmarks.conftest import BENCH_COMPLEX_CFG


def test_bench_surface_spots(benchmark, bench_complex):
    spots = benchmark(surface_spots, bench_complex.receptor, 16)
    assert len(spots) >= 8


def test_bench_pose_batch_1024(benchmark, bench_complex):
    rng = np.random.default_rng(0)
    lig = bench_complex.ligand_crystal
    batch = lig.coords[None] + rng.normal(scale=3.0, size=(1024, 1, 3))
    scores = benchmark.pedantic(
        score_pose_batch,
        args=(bench_complex.receptor, lig, batch),
        rounds=3,
        iterations=1,
    )
    assert scores.shape == (1024,)


@pytest.mark.parametrize("strategy", ["ga", "local", "scatter"])
def test_bench_metaheuristic_strategies(benchmark, bench_engine, strategy):
    params = STRATEGY_PRESETS[strategy](500)

    def run():
        return MetaheuristicSchema(bench_engine, params, seed=0).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.best_score > 0


def test_bench_montecarlo(benchmark, bench_engine):
    def run():
        return MonteCarloOptimizer(
            bench_engine, MonteCarloConfig(steps=500, restarts=2), seed=0
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.isfinite(result.best_score)


def test_bench_virtual_screening(benchmark, bench_complex):
    library = generate_library(BENCH_COMPLEX_CFG, 4, seed=0)

    def run():
        config = ScreeningConfig(strategy="local", budget=150, seed=0)
        return run_screening(bench_complex, library, config).hits

    hits = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(hits) == 4
    scores = [h.best_score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_bench_vectorized_collection(benchmark, bench_complex):
    """Batched acting over N envs vs the per-env network cost."""
    from repro.env.docking_env import DockingEnv
    from repro.env.factory import make_vector_env
    from repro.metadock.engine import MetadockEngine
    from repro.rl.agent import AgentConfig, DQNAgent
    from repro.rl.vector_trainer import VectorTrainer

    def run():
        venv = make_vector_env(
            env_fns=[
                lambda: DockingEnv(
                    MetadockEngine(
                        bench_complex, shift_length=1.0, rotation_angle_deg=2.0
                    )
                )
            ]
            * 4,
        )
        try:
            agent = DQNAgent(
                AgentConfig(
                    state_dim=venv.state_dim,
                    n_actions=venv.n_actions,
                    hidden_sizes=(60, 60),
                    replay_capacity=4096,
                    minibatch_size=32,
                    initial_exploration_steps=0,
                    epsilon_decay=1e-3,
                    seed=0,
                )
            )
            return VectorTrainer(venv, agent, train_interval=4).run(
                total_steps=200
            )
        finally:
            venv.close()

    history = benchmark.pedantic(run, rounds=2, iterations=1)
    rate = history.total_steps / max(history.wall_seconds, 1e-9)
    print(f"\nvectorized collection: {rate:.1f} steps/s")
    assert history.total_steps == 200
