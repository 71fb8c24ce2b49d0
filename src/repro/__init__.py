"""DQN-Docking: deep reinforcement learning for protein-ligand docking.

Reproduction of Serrano et al., *Accelerating Drugs Discovery with Deep
Reinforcement Learning: An Early Approach* (ICPP 2018 Companion).

The package is organized bottom-up:

- :mod:`repro.utils` -- RNG plumbing, ASCII plotting, tables.
- :mod:`repro.chem` -- molecules, force-field parameters, transforms, I/O,
  synthetic complex builders (the 2BSM stand-in).
- :mod:`repro.scoring` -- the METADOCK scoring function (paper Eq. 1):
  electrostatics + Lennard-Jones + hydrogen bonds, plus the sequential
  Algorithm-1 reference, neighbor lists and precomputed field maps.
- :mod:`repro.metadock` -- the docking engine (poses, metaheuristic schema,
  Monte Carlo baseline, parallel evaluation, virtual screening).
- :mod:`repro.nn` -- from-scratch NumPy neural-network stack (MLP, backprop,
  RMSprop/Adam, dueling heads, checkpoints).
- :mod:`repro.rl` -- replay memories, schedules, DQN agent + DDQN /
  dueling / distributional variants, the training loop of Algorithm 2.
- :mod:`repro.env` -- the DQN-Docking environment: 12 discrete actions,
  the paper's reward transformation and termination rules.
- :mod:`repro.experiments` -- drivers that regenerate every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import quick_training_run
    result = quick_training_run(episodes=20, seed=0)
    print(result.summary())
"""

from repro.config import (
    ComplexConfig,
    DQNDockingConfig,
    PAPER_CONFIG,
    ci_scale_config,
)
from repro.version import __version__

__all__ = [
    "__version__",
    "ComplexConfig",
    "DQNDockingConfig",
    "PAPER_CONFIG",
    "ci_scale_config",
    "quick_training_run",
]


def quick_training_run(episodes: int = 20, seed: int = 0):
    """Train a small DQN-Docking agent end to end and return its history.

    This is the one-call smoke entry point used by the quickstart example:
    it builds a reduced synthetic receptor-ligand complex, wraps it in the
    paper's environment, and runs ``episodes`` episodes of Algorithm 2.
    """
    from repro.experiments.figure4 import run_figure4_experiment

    cfg = ci_scale_config(episodes=episodes, seed=seed)
    return run_figure4_experiment(cfg)
