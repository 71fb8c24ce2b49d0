#!/usr/bin/env python
"""The full Section 4 experiment at paper scale (2BSM-sized complex).

Builds the 3,264-atom receptor / 45-atom ligand complex, prints Table 1,
and runs a configurable slice of the 1,800-episode training in the
paper's configuration as this repo defines it: compact observation codec,
exact Eq. 1 scoring, and every Table 1 hyperparameter, including the
400,000-transition replay memory (stored compactly, ~0.4 GB).  The full
run takes hours on CPU; the default slice (3 episodes) demonstrates that
the paper-scale pipeline works and reports the measured steps/sec so the
full-run cost can be extrapolated.

The replay is deliberately not dense: 400,000 full-width states plus
next-states are ~32 GB in float32 at this 10,059 width (docs/PERFORMANCE.md:
"dense replay, float32 ... ~53 GB" at the paper's 16,599), more than a
commodity machine can allocate.  So the agent comes from
``build_agent_for_env``, which builds the Q-network on the full width and
wires the env's constant receptor prefix into compact replay, not from
``build_agent(cfg, env.state_dim, ...)``.

Run:
    python examples/paper_scale.py [--episodes N] [--max-steps T]
"""

from __future__ import annotations

import argparse
import time

from repro.chem.builders import build_complex
from repro.config import PAPER_CONFIG
from repro.env.factory import make_env
from repro.experiments.figure4 import build_agent_for_env
from repro.experiments.table1 import render_table1
from repro.rl.trainer import Trainer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=3)
    parser.add_argument("--max-steps", type=int, default=150)
    args = parser.parse_args()

    print(render_table1())
    print()

    cfg = PAPER_CONFIG.replace(
        episodes=args.episodes,
        max_steps_per_episode=args.max_steps,
        # Learning must start inside the demo slice to exercise the
        # full pipeline (the paper's 10k-step warmup assumes 1,800 eps);
        # the first learn step also needs minibatch_size (32) stored
        # transitions, so slices shorter than that only act.
        learning_start=min(PAPER_CONFIG.learning_start, args.max_steps),
        initial_exploration_steps=min(
            PAPER_CONFIG.initial_exploration_steps, 2 * args.max_steps
        ),
    )

    print(
        f"Building the paper-scale complex "
        f"({cfg.complex.receptor_atoms} + {cfg.complex.ligand_atoms} atoms)..."
    )
    t0 = time.perf_counter()
    built = build_complex(cfg.complex)
    print(f"  built in {time.perf_counter() - t0:.1f}s")

    env = make_env(cfg, built)
    try:
        print(
            f"  state vector: {env.observation_spec.full_dim:,} reals "
            f"(paper: {cfg.state_space:,}); actions: {env.n_actions}"
        )
        agent = build_agent_for_env(cfg, env)
        print(f"  Q-network parameters: {agent.q_net.n_parameters():,}")
        trainer = Trainer(
            env,
            agent,
            episodes=cfg.episodes,
            max_steps_per_episode=cfg.max_steps_per_episode,
            learning_start=cfg.learning_start,
            target_update_steps=cfg.target_update_steps,
        )
        print(f"\nRunning {cfg.episodes} episodes x {cfg.max_steps_per_episode} steps ...")
        history = trainer.run()
        print(history.summary())
        sps = history.total_steps / max(history.wall_seconds, 1e-9)
        full_steps = 1800 * 1000
        print(
            f"\nthroughput: {sps:.1f} steps/s -> full 1,800x1,000-step run "
            f"~ {full_steps / sps / 3600:.1f} h on this machine"
        )
        print("\nphase timing:")
        print(history.timer_report)
    finally:
        env.close()


if __name__ == "__main__":
    main()
