"""Lennard-Jones 12-6 term of Eq. 1 (van der Waals, MMFF94-flavoured).

``sum_ij 4 eps_ij ((sigma_ij/r)^12 - (sigma_ij/r)^6)`` with
Lorentz-Berthelot combination: ``sigma_ij = (sigma_i + sigma_j)/2``,
``eps_ij = sqrt(eps_i * eps_j)``.  The r^-12 wall is the steric-overlap
penalty that drives the paper's episode-termination rule.
"""

from __future__ import annotations

import numpy as np


def combine_lj(
    sigma_a: np.ndarray,
    eps_a: np.ndarray,
    sigma_b: np.ndarray,
    eps_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lorentz-Berthelot combination -> pair matrices (n, m)."""
    sa = np.asarray(sigma_a, dtype=float)[:, None]
    sb = np.asarray(sigma_b, dtype=float)[None, :]
    ea = np.asarray(eps_a, dtype=float)[:, None]
    eb = np.asarray(eps_b, dtype=float)[None, :]
    return 0.5 * (sa + sb), np.sqrt(ea * eb)


def lennard_jones_energy(
    sigma_a: np.ndarray,
    eps_a: np.ndarray,
    sigma_b: np.ndarray,
    eps_b: np.ndarray,
    distances: np.ndarray,
) -> float:
    """Total 12-6 energy between two atom sets, kcal/mol."""
    return float(
        lennard_jones_energy_matrix(
            sigma_a, eps_a, sigma_b, eps_b, distances
        ).sum()
    )


def lennard_jones_energy_matrix(
    sigma_a: np.ndarray,
    eps_a: np.ndarray,
    sigma_b: np.ndarray,
    eps_b: np.ndarray,
    distances: np.ndarray,
) -> np.ndarray:
    """Per-pair 12-6 energies (n, m).

    Computed via ``x = (sigma/r)^6`` then ``4 eps (x^2 - x)`` -- one pow
    and two multiplies per pair instead of two pows.
    """
    sig, eps = combine_lj(sigma_a, eps_a, sigma_b, eps_b)
    x = sig / distances
    x6 = x * x * x
    x6 *= x6  # (sigma/r)^6
    return 4.0 * eps * (x6 * x6 - x6)


def lj_pair(sigma: float, eps: float, r: float) -> float:
    """Single-pair 12-6 energy with pre-combined parameters."""
    x6 = (sigma / r) ** 6
    return 4.0 * eps * (x6 * x6 - x6)


def lj_minimum(sigma: float) -> float:
    """Distance of the 12-6 minimum, ``2^(1/6) sigma``."""
    return 2.0 ** (1.0 / 6.0) * sigma
