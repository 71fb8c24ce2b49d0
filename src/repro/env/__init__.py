"""The DQN-Docking environment (paper Section 3).

:class:`DockingEnv` turns the :class:`~repro.metadock.engine.
MetadockEngine` into an MDP by adding what METADOCK lacks -- the "game
rules":

- the reward transformation (sign of the score change, clipped to
  {-1, 0, +1});
- the escape rule (ligand drifts beyond 4/3 of the initial
  center-of-mass distance);
- the deep-penetration rule (20 consecutive scores below -100,000).

:mod:`repro.env.comm` reproduces the paper's two engine<->agent
communication layers: the on-disk file exchange the authors used (their
limitation #1) and the RAM-based replacement they propose.
"""

from repro.env.spaces import Box, Discrete
from repro.env.comm import RamComm, FileComm, make_comm
from repro.env.docking_env import DockingEnv
from repro.env.flexible_env import FlexibleDockingEnv
from repro.env.observation import (
    OBSERVATION_MODES,
    ObservationSpec,
    StateCodec,
    make_codec,
)
from repro.env.wrappers import (
    TimeLimit,
)
from repro.env.image_state import ImageStateEnv
from repro.env.vectorized import SyncVectorEnv, coerce_actions
from repro.env.factory import make_env, make_vector_env

__all__ = [
    "Box",
    "Discrete",
    "RamComm",
    "FileComm",
    "make_comm",
    "DockingEnv",
    "make_env",
    "FlexibleDockingEnv",
    "OBSERVATION_MODES",
    "ObservationSpec",
    "StateCodec",
    "make_codec",
    "TimeLimit",
    "ImageStateEnv",
    "coerce_actions",
    "SyncVectorEnv",
    "make_vector_env",
]
