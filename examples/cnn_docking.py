#!/usr/bin/env python
"""CNN-DQN docking: the paper's proposed image-state extension, working.

Section 5 observes that raw coordinate states grow with molecule size
and proposes "substituting those internal states by a stack of
receptor-ligand images and then use a convolutional NN instead of a
MLP".  This example trains exactly that: a 6-channel projection stack
(3 receptor + 3 ligand views) through a small CNN, side by side with the
MLP baseline on the same complex -- and prints the state-size comparison
that motivates the whole idea.

Run:
    python examples/cnn_docking.py [--episodes N] [--resolution R]
"""

from __future__ import annotations

import argparse

from repro.chem.builders import build_complex
from repro.config import ci_scale_config
from repro.env.factory import make_env
from repro.env.image_state import ImageStateEnv
from repro.env.wrappers import TimeLimit
from repro.metadock.engine import MetadockEngine
from repro.env.docking_env import DockingEnv
from repro.nn.conv import build_cnn
from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.trainer import Trainer


def train(env, agent, cfg, label: str) -> None:
    history = Trainer(
        env,
        agent,
        episodes=cfg.episodes,
        max_steps_per_episode=cfg.max_steps_per_episode,
        learning_start=cfg.learning_start,
        target_update_steps=cfg.target_update_steps,
    ).run()
    print(
        f"{label:>4}: state dim {env.state_dim:>6,}  "
        f"params {agent.q_net.n_parameters():>9,}  "
        f"best score {history.best_score:8.2f}  "
        f"success@2A {history.docking_success_rate(2.0):5.1%}  "
        f"({history.wall_seconds:.1f}s)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=30)
    parser.add_argument("--resolution", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = ci_scale_config(
        episodes=args.episodes, seed=args.seed, learning_rate=0.002
    )
    built = build_complex(cfg.complex)
    print(
        f"complex: {cfg.complex.receptor_atoms}-atom receptor / "
        f"{cfg.complex.ligand_atoms}-atom ligand\n"
    )

    # MLP baseline on raw coordinates (the paper's setting).
    mlp_env = make_env(cfg, built)
    try:
        mlp_agent = DQNAgent(
            AgentConfig.from_run_config(cfg, mlp_env.state_dim, mlp_env.n_actions)
        )
        train(mlp_env, mlp_agent, cfg, "MLP")
    finally:
        mlp_env.close()

    # CNN on image states (the Section 5 proposal).
    engine = MetadockEngine(
        built,
        shift_length=cfg.shift_length,
        rotation_angle_deg=cfg.rotation_angle_deg,
    )
    cnn_env = TimeLimit(
        ImageStateEnv(
            DockingEnv(
                engine,
                escape_factor=cfg.escape_factor,
                low_score_patience=cfg.low_score_patience,
                low_score_threshold=cfg.low_score_threshold,
            ),
            resolution=args.resolution,
        ),
        cfg.max_steps_per_episode,
    )
    try:
        net = build_cnn(
            cnn_env.image_shape,
            cnn_env.n_actions,
            conv_channels=(8, 16),
            hidden=64,
            rng=cfg.seed,
        )
        cnn_agent = DQNAgent(
            AgentConfig.from_run_config(
                cfg, cnn_env.state_dim, cnn_env.n_actions
            ),
            network=net,
        )
        train(cnn_env, cnn_agent, cfg, "CNN")
    finally:
        cnn_env.close()

    print(
        "\nNote: the CNN state size is fixed by the image resolution -- "
        "it does not grow with the number of atoms, which is the "
        "scalability problem Section 5 raises for the raw-state MLP."
    )


if __name__ == "__main__":
    main()
