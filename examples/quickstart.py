#!/usr/bin/env python
"""Quickstart: train a small DQN-Docking agent end to end.

Builds a reduced synthetic receptor-ligand complex (same structure as the
paper's 2BSM setting), trains DQN per Algorithm 2 for a few seconds of
CPU, prints the Figure 4 training curve, then deploys the trained policy
greedily -- the paper's end goal of cheap docking once the NN is trained.

Run:
    python examples/quickstart.py [--episodes N] [--seed S]
"""

from __future__ import annotations

import argparse

from repro.config import ci_scale_config
from repro.env.factory import make_env
from repro.experiments.figure4 import build_agent, run_figure4_experiment
from repro.rl.evaluation import evaluate_policy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = ci_scale_config(
        episodes=args.episodes, seed=args.seed, learning_rate=0.002
    )
    print("Training DQN-Docking...")
    print(
        f"  complex: {cfg.complex.receptor_atoms}-atom receptor, "
        f"{cfg.complex.ligand_atoms}-atom ligand"
    )
    print(f"  {cfg.episodes} episodes x up to {cfg.max_steps_per_episode} steps\n")

    result = run_figure4_experiment(cfg)
    print(result.summary())

    print("\nGreedy deployment rollouts (epsilon = 0):")
    env = make_env(cfg)
    try:
        untrained = build_agent(cfg, env.state_dim, env.n_actions)
        greedy = dict(
            episodes=1, max_steps=cfg.max_steps_per_episode, epsilon=0.0
        )
        before = evaluate_policy(env, untrained, **greedy)
        after = evaluate_policy(env, result.agent, **greedy)
        print(f"  untrained agent best score: {before.max_best_score:10.2f}")
        print(
            f"  trained agent best score:   {after.max_best_score:10.2f}  "
            f"({after.mean_episode_length:.0f} steps)"
        )
    finally:
        env.close()


if __name__ == "__main__":
    main()
