"""Bench: Section 5 future-work ablations.

- algorithm variants (DQN / DDQN / dueling / distributional);
- flexible-ligand action space (12 vs 18+ actions);
- comm-layer ablation table (RAM vs file vs file+fsync).
"""

import pytest

from repro.chem.builders import build_complex
from repro.config import ci_scale_config
from repro.env.flexible_env import FlexibleDockingEnv
from repro.env.wrappers import TimeLimit
from repro.experiments.ablations import run_comm_ablation
from repro.experiments.figure4 import build_agent, run_figure4_experiment
from repro.rl.trainer import Trainer

ABLATION_CFG = ci_scale_config(episodes=25, seed=0, learning_rate=0.002)


@pytest.mark.parametrize(
    "variant",
    ["dqn", "ddqn", "dueling", "dueling-ddqn", "distributional", "rainbow"],
)
def test_bench_variant_training(benchmark, variant):
    cfg = ABLATION_CFG.replace(variant=variant)
    result = benchmark.pedantic(
        run_figure4_experiment, args=(cfg,), rounds=1, iterations=1
    )
    assert len(result.history.episodes) == cfg.episodes
    assert result.series.size > 0


def test_variants_all_learn_something():
    """Every variant's Q-curve must rise once learning starts."""
    for variant in ("dqn", "ddqn", "dueling"):
        cfg = ABLATION_CFG.replace(variant=variant)
        result = run_figure4_experiment(cfg)
        s = result.shape(smooth=5)
        print(f"\n{variant}: first={s.first:.2f} peak={s.peak:.2f}")
        assert s.peak > s.first, variant


def test_bench_flexible_ligand_training(benchmark):
    """The 18-action extension: same trainer, larger action space."""
    cfg = ABLATION_CFG
    built = build_complex(cfg.complex)

    def run():
        env = TimeLimit(
            FlexibleDockingEnv(
                built,
                n_torsions=cfg.complex.rotatable_bonds,
                shift_length=cfg.shift_length,
                rotation_angle_deg=cfg.rotation_angle_deg,
            ),
            cfg.max_steps_per_episode,
        )
        try:
            agent = build_agent(cfg, env.state_dim, env.n_actions)
            return Trainer(
                env,
                agent,
                episodes=10,
                max_steps_per_episode=cfg.max_steps_per_episode,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
            ).run()
        finally:
            env.close()

    history = benchmark.pedantic(run, rounds=1, iterations=1)
    assert history.total_steps > 0


def test_bench_target_update_sweep(benchmark):
    """Sweep the 'empirically set' C (target-sync period) of Table 1."""
    from repro.experiments.sweep import run_sweep

    cfg = ABLATION_CFG.replace(episodes=12)

    def run():
        return run_sweep(cfg, "target_update_steps", [30, 120, 480])

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + result.summary())
    assert len(result.results) == 3
    # Every setting must still learn (rising Q).
    for value, run in result.results.items():
        shape = run.shape()
        assert shape.peak >= shape.first, f"C={value}"


def test_bench_cnn_image_state_training(benchmark):
    """The Section 5 CNN-on-images extension, trained end to end."""
    from repro.env.docking_env import DockingEnv
    from repro.env.image_state import ImageStateEnv
    from repro.metadock.engine import MetadockEngine
    from repro.nn.conv import build_cnn
    from repro.rl.agent import AgentConfig, DQNAgent

    cfg = ABLATION_CFG
    built = build_complex(cfg.complex)

    def run():
        env = TimeLimit(
            ImageStateEnv(
                DockingEnv(
                    MetadockEngine(
                        built,
                        shift_length=cfg.shift_length,
                        rotation_angle_deg=cfg.rotation_angle_deg,
                    )
                ),
                resolution=16,
            ),
            cfg.max_steps_per_episode,
        )
        try:
            net = build_cnn(
                env.image_shape, env.n_actions,
                conv_channels=(8,), hidden=32, rng=cfg.seed,
            )
            agent = DQNAgent(
                AgentConfig.from_run_config(
                    cfg, env.state_dim, env.n_actions
                ),
                network=net,
            )
            return Trainer(
                env,
                agent,
                episodes=8,
                max_steps_per_episode=cfg.max_steps_per_episode,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
            ).run()
        finally:
            env.close()

    history = benchmark.pedantic(run, rounds=1, iterations=1)
    assert history.total_steps > 0


def test_bench_comm_ablation_table(benchmark):
    result = benchmark.pedantic(
        run_comm_ablation,
        args=(ABLATION_CFG,),
        kwargs={"steps": 150},
        rounds=1,
        iterations=1,
    )
    print("\n" + result.summary())
    ram_sps = float(result.rows[0][1])
    file_sps = float(result.rows[1][1])
    fsync_sps = float(result.rows[2][1])
    # RAM must dominate; fsync is the worst case.
    assert ram_sps > file_sps * 0.99
    assert file_sps > fsync_sps * 0.8
