"""METADOCK substrate: the docking engine the DQN agent lives in.

METADOCK (Imbernón et al. 2017) is a parallel *parameterized
metaheuristic schema* for virtual screening: poses of a ligand are
generated over the receptor surface, scored with Eq. 1, and evolved by a
configurable initialize/select/combine/improve loop.  The paper embeds it
as the RL environment: actions are translations/rotations, the engine
returns the next state and its score.

Modules:

- :mod:`repro.metadock.pose` -- pose parameterization (translation +
  quaternion + torsions) and pose-to-coordinates application;
- :mod:`repro.metadock.engine` -- :class:`MetadockEngine`, the stateful
  environment core (paper Figure 2's right-hand box);
- :mod:`repro.metadock.spots` -- receptor surface-spot decomposition;
- :mod:`repro.metadock.metaheuristic` -- the parameterized schema;
- :mod:`repro.metadock.strategies` -- GA / local-search / random-restart
  instantiations of the schema;
- :mod:`repro.metadock.montecarlo` -- Metropolis Monte Carlo baseline
  (the "traditional model" METADOCK is contrasted with);
- :mod:`repro.metadock.library` -- ZINC-like synthetic ligand
  libraries (screened by :mod:`repro.screening.driver`);
- :mod:`repro.metadock.blind` -- blind docking over every surface spot.
"""

from repro.metadock.pose import Pose, apply_pose
from repro.metadock.engine import MetadockEngine, EngineObservation
from repro.metadock.spots import surface_spots, Spot
from repro.metadock.metaheuristic import (
    MetaheuristicParams,
    MetaheuristicSchema,
    OptimizationResult,
)
from repro.metadock.strategies import (
    genetic_algorithm_params,
    local_search_params,
    random_search_params,
    scatter_search_params,
)
from repro.metadock.montecarlo import MonteCarloOptimizer, MonteCarloResult
from repro.metadock.library import generate_library
from repro.metadock.blind import blind_dock, BlindDockingResult, SpotResult

__all__ = [
    "Pose",
    "apply_pose",
    "MetadockEngine",
    "EngineObservation",
    "surface_spots",
    "Spot",
    "MetaheuristicParams",
    "MetaheuristicSchema",
    "OptimizationResult",
    "genetic_algorithm_params",
    "local_search_params",
    "random_search_params",
    "scatter_search_params",
    "MonteCarloOptimizer",
    "MonteCarloResult",
    "generate_library",
    "blind_dock",
    "BlindDockingResult",
    "SpotResult",
]
