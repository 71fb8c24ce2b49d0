"""Pairwise geometry kernels shared by all scoring terms.

The hot path of the whole system is "distance matrix between a ~3k-atom
receptor and a ~45-atom ligand, many times per second"; these kernels are
written to allocate once per call, stay C-contiguous, and broadcast the
small (ligand) axis against the large (receptor) axis, per the
hpc-parallel guides.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MIN_DISTANCE


def pairwise_distances(
    a: np.ndarray, b: np.ndarray, min_distance: float = MIN_DISTANCE
) -> np.ndarray:
    """Distances between point sets ``a`` (n,3) and ``b`` (m,3) -> (n, m).

    Distances are clamped below at ``min_distance`` so downstream ``1/r``
    powers stay finite: overlapping atoms then produce the huge-but-finite
    penalties the paper reports (scores around ``-4.5e21``).

    This is the definition; the scorers' hot path
    (:class:`repro.scoring.composite.Eq1Kernel`) runs the same
    operations through reusable buffers.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    # |a - b|^2 = |a|^2 + |b|^2 - 2 a.b  (one GEMM instead of a 3D temp)
    a2 = (a * a).sum(axis=1)[:, None]
    b2 = (b * b).sum(axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * (a @ b.T)
    np.maximum(d2, min_distance * min_distance, out=d2)
    return np.sqrt(d2, out=d2)


def direction_vectors(mol_coords: np.ndarray, bonds: np.ndarray) -> np.ndarray:
    """Per-atom outward direction used by the H-bond angular term.

    For each atom the direction points *away* from the mean of its bonded
    neighbors -- a cheap proxy for "where the hydrogen / lone pair points".
    Atoms with no bonds get a zero vector (interpreted as isotropic, i.e.
    ideal alignment, by the H-bond term).
    """
    pts = np.asarray(mol_coords, dtype=float)
    n = pts.shape[0]
    out = np.zeros((n, 3))
    bonds = np.asarray(bonds, dtype=np.int64).reshape(-1, 2)
    if bonds.size == 0:
        return out
    neighbor_sum = np.zeros((n, 3))
    degree = np.zeros(n)
    np.add.at(neighbor_sum, bonds[:, 0], pts[bonds[:, 1]])
    np.add.at(neighbor_sum, bonds[:, 1], pts[bonds[:, 0]])
    np.add.at(degree, bonds[:, 0], 1.0)
    np.add.at(degree, bonds[:, 1], 1.0)
    bonded = degree > 0
    mean_nbr = neighbor_sum[bonded] / degree[bonded, None]
    vec = pts[bonded] - mean_nbr
    norm = np.linalg.norm(vec, axis=1, keepdims=True)
    ok = norm[:, 0] > 1e-9
    vec[ok] /= norm[ok]
    vec[~ok] = 0.0
    out[bonded] = vec
    return out
