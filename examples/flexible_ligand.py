#!/usr/bin/env python
"""Flexible-ligand docking: the Section 5 extension, working.

The paper notes the 2BSM ligand "can fold in 6 bonds" and that a flexible
treatment would enlarge the action space to 18.  This example trains the
rigid 12-action agent and the flexible agent on the same complex and
compares what each can reach; it also shows the torsion machinery
directly by sweeping one rotatable bond and printing the score profile.

Run:
    python examples/flexible_ligand.py [--episodes N]
"""

from __future__ import annotations

import argparse
import math

from repro.chem.builders import build_complex
from repro.config import ci_scale_config
from repro.env.flexible_env import FlexibleDockingEnv
from repro.env.factory import make_env
from repro.env.wrappers import TimeLimit
from repro.metadock.engine import MetadockEngine
from repro.metadock.pose import Pose
from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.trainer import Trainer
from repro.utils.ascii_plot import sparkline


def torsion_sweep(built) -> None:
    """Score the crystal-area pose as one torsion sweeps 360 degrees."""
    engine = MetadockEngine(built, n_torsions=2)
    base = Pose(
        built.ligand_crystal.centroid(),
        Pose.identity().orientation,
        (0.0, 0.0),
    )
    scores = []
    for k in range(36):
        angle = -math.pi + k * (2 * math.pi / 36)
        pose = Pose(base.translation, base.orientation, (angle, 0.0))
        scores.append(engine.score_pose(pose))
    print("torsion sweep (bond 0, -180..180 deg):", sparkline(scores))
    best = max(range(36), key=lambda k: scores[k])
    print(
        f"  best angle {-180 + best * 10} deg, score {scores[best]:.2f} "
        f"(vs {scores[18]:.2f} at 0 deg)"
    )


def train(env, cfg, label: str) -> float:
    agent_cfg = AgentConfig.from_run_config(cfg, env.state_dim, env.n_actions)
    agent = DQNAgent(agent_cfg)
    trainer = Trainer(
        env,
        agent,
        episodes=cfg.episodes,
        max_steps_per_episode=cfg.max_steps_per_episode,
        learning_start=cfg.learning_start,
        target_update_steps=cfg.target_update_steps,
    )
    history = trainer.run()
    print(
        f"{label:>8}: actions={env.n_actions:2d}  "
        f"best score {history.best_score:8.2f}  "
        f"steps {history.total_steps}"
    )
    return history.best_score


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = ci_scale_config(
        episodes=args.episodes,
        seed=args.seed,
        ligand_atoms=12,
        learning_rate=0.002,
    )
    built = build_complex(cfg.complex)

    print("Torsion machinery demonstration:")
    torsion_sweep(built)
    print()

    print("Training rigid (12 actions) vs flexible agents:")
    rigid_env = make_env(cfg, built)
    try:
        train(rigid_env, cfg, "rigid")
    finally:
        rigid_env.close()

    flex_env = TimeLimit(
        FlexibleDockingEnv(
            built,
            n_torsions=cfg.complex.rotatable_bonds,
            shift_length=cfg.shift_length,
            rotation_angle_deg=cfg.rotation_angle_deg,
        ),
        cfg.max_steps_per_episode,
    )
    try:
        train(flex_env, cfg, "flexible")
    finally:
        flex_env.close()


if __name__ == "__main__":
    main()
