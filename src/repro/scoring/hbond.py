"""Hydrogen-bond term of Eq. 1 (Fabiola et al. 12-10 potential).

Per Eq. 1, each eligible donor-acceptor pair contributes::

    cos(theta) * (C/r^12 - D/r^10) + sin(theta) * 4 eps ((s/r)^12 - (s/r)^6)

i.e. a 12-10 hydrogen-bond well when the geometry is aligned
(theta -> 0) that degrades continuously into a plain Lennard-Jones
interaction when the alignment is poor (theta -> 90 deg).

``theta`` is approximated per pair as the angle between the donor atom's
outward direction (away from its bonded neighbors -- where its hydrogen
points; see :func:`repro.scoring.pairwise.direction_vectors`) and the
donor->acceptor vector.  Atoms without topology get ideal alignment.

``C`` and ``D`` are set so the 12-10 well has its minimum at ``r0`` with
depth ``eps_hb``: ``C = 5 eps_hb r0^12``, ``D = 6 eps_hb r0^10``.
"""

from __future__ import annotations

import numpy as np

#: Ideal hydrogen-bond heavy-atom distance, angstrom.
HBOND_R0: float = 2.9
#: Hydrogen-bond well depth, kcal/mol.
HBOND_DEPTH: float = 5.0


def hbond_coefficients(
    r0: float = HBOND_R0, depth: float = HBOND_DEPTH
) -> tuple[float, float]:
    """(C, D) of the 12-10 potential with minimum ``-depth`` at ``r0``."""
    return 5.0 * depth * r0**12, 6.0 * depth * r0**10


def eligible_pairs_mask(
    donor_a: np.ndarray,
    acceptor_a: np.ndarray,
    donor_b: np.ndarray,
    acceptor_b: np.ndarray,
) -> np.ndarray:
    """(n, m) mask of pairs where one side can donate and the other accept."""
    da = np.asarray(donor_a, dtype=bool)[:, None]
    aa = np.asarray(acceptor_a, dtype=bool)[:, None]
    db = np.asarray(donor_b, dtype=bool)[None, :]
    ab = np.asarray(acceptor_b, dtype=bool)[None, :]
    return (da & ab) | (aa & db)


def isotropic(dirs: np.ndarray) -> np.ndarray:
    """Rows of ``dirs`` (per-atom outward directions) that have none.

    An atom without bonds gets a zero direction
    (:func:`repro.scoring.pairwise.direction_vectors`) and counts as
    ideally aligned with every partner: cos = 1, sin = 0.  Every scorer
    takes the mask from here.
    """
    return (np.abs(dirs) < 1e-12).all(axis=1)


def hbond_angle_factors(
    coords_a: np.ndarray,
    coords_b: np.ndarray,
    dir_a: np.ndarray,
    *,
    min_distance: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """(cos_theta, sin_theta) matrices, with cos clamped to [0, 1].

    ``dir_a`` holds per-atom outward directions for the A-side atoms (the
    donor side of each pair is approximated as the A atom; symmetrizing
    over both directions changes the landscape negligibly and doubles
    cost).  Zero direction vectors yield ideal alignment (cos=1, sin=0)
    without forming a unit vector.
    """
    pa = np.asarray(coords_a, dtype=float)
    pb = np.asarray(coords_b, dtype=float)
    dir_a = np.asarray(dir_a, dtype=float)
    cos = np.ones((pa.shape[0], pb.shape[0]))
    sin = np.zeros((pa.shape[0], pb.shape[0]))
    ani = np.flatnonzero(~isotropic(dir_a))
    if ani.size:
        diff = pb[None, :, :] - pa[ani, None, :]  # donor->acceptor
        norm = np.linalg.norm(diff, axis=2)
        norm = np.maximum(norm, min_distance)
        unit = diff / norm[:, :, None]
        c = np.einsum("nd,nmd->nm", dir_a[ani], unit)
        np.clip(c, 0.0, 1.0, out=c)
        cos[ani] = c
        sin[ani] = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    return cos, sin


def hbond_energy_matrix(
    distances: np.ndarray,
    mask: np.ndarray,
    cos_theta: np.ndarray,
    sin_theta: np.ndarray,
    sigma_pair: np.ndarray,
    eps_pair: np.ndarray,
    *,
    r0: float = HBOND_R0,
    depth: float = HBOND_DEPTH,
) -> np.ndarray:
    """Per-pair H-bond energies on masked pairs; zeros elsewhere.

    The returned matrix is meant to be *added* to the plain LJ matrix as a
    correction: on eligible pairs the plain LJ was already counted, so the
    correction replaces it with the Eq. 1 mixture::

        correction = cos * E_1210 + sin * E_LJ - E_LJ
                   = cos * E_1210 - (1 - sin) * E_LJ
    """
    d = np.asarray(distances, dtype=float)
    c_coef, d_coef = hbond_coefficients(r0, depth)
    inv = 1.0 / d
    inv2 = inv * inv
    inv10 = inv2**5
    inv12 = inv10 * inv2
    e_1210 = c_coef * inv12 - d_coef * inv10
    x = sigma_pair * inv
    x6 = x * x * x
    x6 *= x6
    e_lj = 4.0 * eps_pair * (x6 * x6 - x6)
    corr = cos_theta * e_1210 - (1.0 - sin_theta) * e_lj
    return np.where(mask, corr, 0.0)


def hbond_1210_pair(r: float, r0: float = HBOND_R0, depth: float = HBOND_DEPTH) -> float:
    """Single-pair 12-10 energy (reference/tests)."""
    c, d = hbond_coefficients(r0, depth)
    return c / r**12 - d / r**10
