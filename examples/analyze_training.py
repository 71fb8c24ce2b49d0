#!/usr/bin/env python
"""Training diagnostics: what does the agent actually do in the pocket?

Trains DQN-Docking with a periodic frozen-policy evaluator attached,
then prints the Figure 4 curve, the termination breakdown and the
evaluation-score trajectory.  The run record is saved to JSON so it can
be re-analyzed without retraining.

Run:
    python examples/analyze_training.py [--episodes N] [--out run.json]
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.chem.builders import build_complex
from repro.config import ci_scale_config
from repro.env.factory import make_env
from repro.experiments.figure4 import build_agent
from repro.rl.evaluation import PeriodicEvaluator
from repro.rl.trainer import Trainer
from repro.utils.ascii_plot import sparkline
from repro.utils.serialization import save_history


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="save history JSON here")
    args = parser.parse_args()

    cfg = ci_scale_config(
        episodes=args.episodes, seed=args.seed, learning_rate=0.002
    )
    built = build_complex(cfg.complex)
    env = make_env(cfg, built)
    eval_env = make_env(cfg, built)
    try:
        agent = build_agent(cfg, env.state_dim, env.n_actions)
        evaluator = PeriodicEvaluator(
            eval_env,
            agent,
            every=max(2, args.episodes // 6),
            episodes=2,
            max_steps=cfg.max_steps_per_episode,
            seed=args.seed,
        )
        print(f"Training {cfg.episodes} episodes with diagnostics attached...\n")
        history = Trainer(
            env,
            agent,
            episodes=cfg.episodes,
            max_steps_per_episode=cfg.max_steps_per_episode,
            learning_start=cfg.learning_start,
            target_update_steps=cfg.target_update_steps,
            on_episode_end=evaluator,
        ).run()

        print(history.summary())
        print(
            f"docking success@2A over training: "
            f"{history.docking_success_rate(2.0):.1%}"
        )
        print()
        print(history.figure4_plot())
        terminations = Counter(e.termination for e in history.episodes)
        print(
            "\nterminations: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(terminations.items()))
        )
        if evaluator.results:
            print(
                "\nfrozen-policy eval (mean best score): "
                + sparkline(evaluator.score_series())
            )
            for ep, res in evaluator.results:
                print(f"  after episode {ep:>3}: {res.summary()}")
        if args.out:
            save_history(history, args.out)
            print(f"\nrun record saved to {args.out}")
    finally:
        env.close()
        eval_env.close()


if __name__ == "__main__":
    main()
