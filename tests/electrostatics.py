"""Reference definition of Eq. 1's electrostatic term (test-only).

``sum_ij k * q_i q_j / r_ij``: Gilson-style Coulomb interaction (paper
reference [13]) with an optional distance-dependent dielectric.
Positive when like charges approach -- one of the two sharp-penalty
mechanisms the paper describes (electrostatic repulsion between two
positives).  The live scorer evaluates the term inside
``repro.scoring.composite.Eq1Kernel``; ``tests/test_scoring_terms.py``
checks the kernel's electrostatic share against this definition.
"""

from __future__ import annotations

import numpy as np

from repro.constants import COULOMB_CONSTANT, DIELECTRIC, MIN_DISTANCE


def electrostatic_energy(
    charges_a: np.ndarray,
    charges_b: np.ndarray,
    distances: np.ndarray,
    *,
    dielectric: float = DIELECTRIC,
    distance_dependent: bool = False,
) -> float:
    """Total Coulomb energy between two charge sets, kcal/mol.

    ``distances`` is the (n, m) matrix from
    :func:`repro.scoring.pairwise.pairwise_distances` (already clamped at
    ``MIN_DISTANCE``).  ``distance_dependent=True`` uses the common
    ``eps(r) = dielectric * r`` screening.
    """
    qa = np.asarray(charges_a, dtype=float)
    qb = np.asarray(charges_b, dtype=float)
    d = np.asarray(distances, dtype=float)
    if d.shape != (qa.size, qb.size):
        raise ValueError(
            f"distance matrix {d.shape} does not match charges "
            f"({qa.size}, {qb.size})"
        )
    denom = d * d if distance_dependent else d
    # (qa outer qb) / denom, summed -- computed as a bilinear form without
    # materializing the outer product of charges.
    inv = 1.0 / denom
    total = qa @ inv @ qb
    return float(COULOMB_CONSTANT / dielectric * total)


def electrostatic_energy_matrix(
    charges_a: np.ndarray,
    charges_b: np.ndarray,
    distances: np.ndarray,
    *,
    dielectric: float = DIELECTRIC,
) -> np.ndarray:
    """Per-pair Coulomb energies (n, m) -- for breakdowns and grids."""
    qa = np.asarray(charges_a, dtype=float)[:, None]
    qb = np.asarray(charges_b, dtype=float)[None, :]
    return COULOMB_CONSTANT / dielectric * qa * qb / distances


def coulomb_pair(q1: float, q2: float, r: float) -> float:
    """Single-pair Coulomb energy (reference/tests)."""
    return COULOMB_CONSTANT * q1 * q2 / max(r, MIN_DISTANCE)
