"""Neighbour search for cutoff-based scoring, in O(ligand neighbourhood).

The receptor is static throughout an episode, so its atoms are binned
into a uniform grid once and stored in *cell-sorted* order -- the
canonical order every pair list in this package is reported in.  A
query never enumerates cells: the probes (one ligand's atoms) sit
inside a ball of radius ``R`` around their centroid, so only the
receptor atoms within ``R + r`` of that centroid can pair with any of
them.  One pass over the sorted receptor keeps those, one GEMM forms
the (probes x kept) squared-distance block, and the pairs are read off
the thresholded block row by row.  Cost follows the ligand's
neighbourhood (~750 of 3,264 atoms at list radius on the 2BSM-scale
complex), not ``(radius / cell_size)**3`` -- the same locality METADOCK
gets on the GPU by "dividing the whole protein surface into independent
regions".
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_CUTOFF

#: Largest (probe rows x candidate columns) distance block formed at
#: once: 2 MiB of float64.  Every query this package issues fits in one
#: block (at most 45 ligand atoms x 3,264 receptor atoms = 147k
#: elements); the cap is there for a caller with thousands of probes,
#: whose rows are then chunked so peak memory stays bounded (a single
#: row wider than the cap still goes through whole).
_BLOCK_ELEMENTS = 1 << 18

#: Slack, relative to the squared reach ``(R + r)**2``, added to every
#: squared-distance threshold of the superset stage.  The centred
#: expansion ``|d|^2 + |q|^2 - 2 d.q`` is accurate to ~50 ulp of that
#: scale (both vectors are at most ``R + r`` long and the centring
#: subtractions are correctly rounded), i.e. ~1e-14; 1e-9 leaves five
#: orders of margin and still widens a 15 A query by < 1e-7 A.
_ROUNDING_MARGIN = 1e-9


class CellList:
    """A static point set held in uniform-grid (cell-sorted) order.

    Parameters
    ----------
    points:
        (n, 3) static coordinates (the receptor).
    cell_size:
        Edge length of the cubic cells.  It fixes the canonical order --
        ascending flat cell id, stored index ascending within a cell --
        and nothing else: query cost and pair membership do not depend
        on it.

    Attributes
    ----------
    order:
        Stored indices in canonical order.
    points_sorted:
        ``points[order]``, contiguous -- what queries scan.
    """

    def __init__(self, points: np.ndarray, cell_size: float = DEFAULT_CUTOFF):
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = pts
        self.cell_size = float(cell_size)
        self.origin = (
            pts.min(axis=0) - 1e-9 if len(pts) else np.zeros(3)
        )
        idx3 = np.floor((pts - self.origin) / self.cell_size).astype(np.int64)
        self.dims = idx3.max(axis=0) + 1 if len(pts) else np.ones(3, np.int64)
        self.order = np.argsort(self._flatten(idx3), kind="stable")
        self.points_sorted = pts[self.order]

    def _flatten(self, idx3: np.ndarray) -> np.ndarray:
        d = self.dims
        return (idx3[..., 0] * d[1] + idx3[..., 1]) * d[2] + idx3[..., 2]

    def __len__(self) -> int:
        return len(self.points)


def candidate_pairs(
    cell_list: CellList, probe_points: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """A canonical-order superset of :func:`query_pairs`' result.

    Every pair within ``radius`` is present, plus possibly a few that
    are beyond it by rounding only (squared distance within
    ``_ROUNDING_MARGIN * (R + radius)**2`` of ``radius**2``, ``R`` the
    probes' bounding radius about their centroid).  Dropping the extras
    leaves exactly :func:`query_pairs`' arrays, so a caller that filters
    by distance itself -- the Verlet scorer compresses its list to
    ``r <= cutoff`` on every score -- can skip the exact pass.

    Raises ``ValueError`` on a non-finite probe.
    """
    probes = np.asarray(probe_points, dtype=float).reshape(-1, 3)
    if not np.isfinite(probes).all():
        raise ValueError("probe points must be finite")
    k, r = probes.shape[0], float(radius)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if k == 0 or len(cell_list) == 0 or not r >= 0:
        return empty
    centre = probes.mean(axis=0)
    d = probes - centre
    d2 = np.einsum("ij,ij->i", d, d)
    reach = float(np.sqrt(d2.max())) + r
    slack = _ROUNDING_MARGIN * reach * reach
    q = cell_list.points_sorted - centre
    q2 = np.einsum("ij,ij->i", q, q)
    near = np.flatnonzero(q2 <= reach * reach + slack)
    n_near = near.size
    if n_near == 0:
        return empty
    # |d - q|^2 as one GEMM over augmented rows: (d, |d|^2, 1) against
    # (-2q, 1, |q|^2).
    lhs = np.column_stack((d, d2, np.ones(k)))
    rhs = np.empty((5, n_near))
    rhs[:3] = np.take(q, near, axis=0).T
    rhs[:3] *= -2.0
    rhs[3] = 1.0
    np.take(q2, near, out=rhs[4])
    limit = r * r + slack
    rows = max(1, _BLOCK_ELEMENTS // n_near)
    if k <= rows:
        hit = np.flatnonzero(lhs @ rhs <= limit)
    else:
        hit = np.concatenate([
            np.flatnonzero(lhs[s : s + rows] @ rhs <= limit) + s * n_near
            for s in range(0, k, rows)
        ])
    # Row-major hits == probe-major, ascending canonical rank.
    probe_of = hit // n_near
    hit -= probe_of * n_near
    return np.take(np.take(cell_list.order, near), hit), probe_of


def query_pairs(
    cell_list: CellList, probe_points: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """All (stored_index, probe_index) pairs within ``radius``, vectorized.

    :func:`candidate_pairs`' superset filtered with exact arithmetic
    (stored minus probe, squared norm, ``<= radius**2``), so membership
    does not depend on how the candidates were found.

    Pair order is canonical and *probe-major*: pairs of probe ``k`` come
    before those of probe ``k+1``; within a probe, stored points appear
    in ``cell_list.order`` -- cells in ascending (ix, iy, iz) order,
    members within a cell in ascending stored order.  This order is
    independent of which probe positions the query is centered on (only
    membership changes), which the incremental scorer relies on for
    bit-stable rescoring (see :mod:`repro.scoring.incremental`).

    Raises ``ValueError`` on a non-finite probe.
    """
    cand, probe_of = candidate_pairs(cell_list, probe_points, radius)
    probes = np.asarray(probe_points, dtype=float).reshape(-1, 3)
    r = float(radius)
    diff = np.take(cell_list.points, cand, axis=0)
    diff -= np.take(probes, probe_of, axis=0)
    keep = np.einsum("ij,ij->i", diff, diff) <= r * r
    return np.compress(keep, cand), np.compress(keep, probe_of)
