"""Cell-list neighbor search for cutoff-based scoring.

The receptor is static throughout an episode, so its atoms are binned
into a uniform grid once; each ligand atom then only visits the 27
surrounding cells instead of all ~3k receptor atoms.  With the default
12 A cutoff this reduces the per-step pair count by roughly the ratio of
the receptor volume to the cutoff sphere -- the same locality optimization
METADOCK applies on the GPU ("dividing the whole protein surface into
independent regions").
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_CUTOFF


class CellList:
    """Uniform-grid spatial index over a static point set.

    Parameters
    ----------
    points:
        (n, 3) static coordinates (the receptor).
    cell_size:
        Edge length of the cubic cells; queries with ``radius <=
        cell_size`` are guaranteed complete by scanning 3x3x3 cells.
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
        flat = self._flatten(idx3)
        order = np.argsort(flat, kind="stable")
        self._sorted_indices = order
        self._sorted_flat = flat[order]
        # CSR-style cell starts over the *occupied* flat ids.
        self._unique_flat, starts = np.unique(
            self._sorted_flat, return_index=True
        )
        self._starts = starts
        self._ends = np.append(starts[1:], len(flat))

    def _flatten(self, idx3: np.ndarray) -> np.ndarray:
        d = self.dims
        return (idx3[..., 0] * d[1] + idx3[..., 1]) * d[2] + idx3[..., 2]

    def __len__(self) -> int:
        return len(self.points)


def query_pairs(
    cell_list: CellList, probe_points: np.ndarray, radius: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All (stored_index, probe_index) pairs within ``radius``, vectorized.

    One fused cell-range query over every probe at once: candidate cells
    for all probes are enumerated as a dense (k, span^3) block of flat
    cell ids, resolved against the occupied-cell CSR table with a single
    ``searchsorted``, and expanded to member indices without any
    Python-level loop over probes or cells.

    Pair order is canonical and *probe-major*: pairs of probe ``k`` come
    before those of probe ``k+1``; within a probe, cells are visited in
    ascending (ix, iy, iz) order and members within a cell in ascending
    stored order.  This order is independent of which probe positions the
    query is centered on (only membership changes), which the incremental
    scorer relies on for bit-stable rescoring (see
    :mod:`repro.scoring.incremental`).
    """
    r = cell_list.cell_size if radius is None else float(radius)
    probes = np.asarray(probe_points, dtype=float).reshape(-1, 3)
    k = probes.shape[0]
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if k == 0 or len(cell_list) == 0:
        return empty
    s = cell_list.cell_size
    dims = cell_list.dims
    lo = np.floor((probes - r - cell_list.origin) / s).astype(np.int64)
    hi = np.floor((probes + r - cell_list.origin) / s).astype(np.int64)
    # Fixed per-axis span covering [lo, hi] for every probe (cells past a
    # probe's own hi are masked out below, so the shared span is just the
    # widest probe's).
    span = int((hi - lo).max()) + 1
    ax = np.arange(span, dtype=np.int64)
    off = np.stack(
        np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1
    ).reshape(-1, 3)  # ascending (dx, dy, dz) scan order
    cells = lo[:, None, :] + off[None, :, :]  # (k, span^3, 3)
    valid = (
        (cells >= 0) & (cells < dims) & (cells <= hi[:, None, :])
    ).all(axis=2)
    flat = cell_list._flatten(cells)  # (k, span^3); bogus where ~valid
    n_occ = len(cell_list._unique_flat)
    pos = np.searchsorted(cell_list._unique_flat, flat)
    np.minimum(pos, n_occ - 1, out=pos)
    found = valid & (cell_list._unique_flat[pos] == flat)
    starts = np.where(found, cell_list._starts[pos], 0).reshape(-1)
    counts = np.where(
        found, cell_list._ends[pos] - cell_list._starts[pos], 0
    ).reshape(-1)
    total = int(counts.sum())
    if total == 0:
        return empty
    # CSR expansion: slot id and within-slot rank for every member
    # (np.take throughout -- measured ~3x faster than fancy indexing).
    cum = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    rank = np.arange(total, dtype=np.int64)
    rank -= np.repeat(cum, counts)
    rank += np.repeat(starts, counts)
    cand = np.take(cell_list._sorted_indices, rank)
    slot = np.repeat(
        np.arange(counts.size, dtype=np.int64), counts
    )
    probe_of = slot // off.shape[0]
    diff = np.take(cell_list.points, cand, axis=0)
    diff -= np.take(probes, probe_of, axis=0)
    d2 = np.einsum("ij,ij->i", diff, diff)
    keep = d2 <= r * r
    return np.compress(keep, cand), np.compress(keep, probe_of)
