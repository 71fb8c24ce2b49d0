"""The METADOCK scoring function (paper Equation 1) and accelerators.

Three physical terms:

- the Coulomb term ``k q_i q_j / r``, evaluated inside
  :class:`~repro.scoring.composite.Eq1Kernel` (its stand-alone
  reference definition is test-only);
- :mod:`repro.scoring.lennard_jones` -- 12-6 van-der-Waals (MMFF94-style);
- :mod:`repro.scoring.hbond` -- 12-10 hydrogen-bond term with the
  ``cos/sin`` angular mixing of Eq. 1.

:mod:`repro.scoring.composite` combines them into the METADOCK score
(*negated* total energy, so clashes are huge negatives and good poses
approach the paper's "+500 at most").  :mod:`repro.scoring.reference` is
the paper's sequential Algorithm 1, kept as the parity oracle and the
baseline for the vectorization speedup bench.

:mod:`repro.scoring.scorers` registers the pose scorers built on them:
the Eq. 1 oracle ("exact"), the production precomputed-field scorer
("field", :mod:`repro.scoring.field`, whose receptor maps
:mod:`repro.scoring.fieldbuild` builds once and caches on disk) and one
neighbour-list family
over :mod:`repro.scoring.neighborlist`, the Verlet-list scorer of
:mod:`repro.scoring.incremental` ("incremental", and "cutoff" at
skin 0).
"""

from repro.scoring.composite import (
    ScoreBreakdown,
    interaction_score,
    score_pose_batch,
)
from repro.scoring.lennard_jones import lennard_jones_energy
from repro.scoring.neighborlist import CellList
from repro.scoring.field import FieldMaps, FieldScorer
from repro.scoring.incremental import IncrementalScorer
from repro.scoring.reference import sequential_score_algorithm1
from repro.scoring.scorers import (
    SCORER_REGISTRY,
    SCORING_METHODS,
    ExactScorer,
    ScorerEntry,
    as_pose,
    as_pose_batch,
    make_scorer,
    receptor_cache,
    score_pose_group,
    validate_scoring_kwargs,
)

__all__ = [
    "ScoreBreakdown",
    "interaction_score",
    "score_pose_batch",
    "lennard_jones_energy",
    "CellList",
    "FieldMaps",
    "FieldScorer",
    "score_pose_group",
    "as_pose",
    "as_pose_batch",
    "sequential_score_algorithm1",
    "ExactScorer",
    "IncrementalScorer",
    "ScorerEntry",
    "SCORER_REGISTRY",
    "SCORING_METHODS",
    "make_scorer",
    "receptor_cache",
    "validate_scoring_kwargs",
]
