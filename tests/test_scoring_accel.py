"""Accelerators: cell-list neighbor search."""

import numpy as np
import pytest

from repro.scoring.neighborlist import CellList, query_pairs


def _within(cl, center, radius):
    """Stored indices within ``radius`` of one ``center``."""
    return query_pairs(cl, np.asarray(center, dtype=float), radius)[0]


class TestCellList:
    def test_query_matches_brute_force(self, rng):
        pts = rng.normal(size=(200, 3)) * 10.0
        cl = CellList(pts, cell_size=4.0)
        for _ in range(10):
            center = rng.normal(size=3) * 8.0
            r = float(rng.uniform(1.0, 4.0))
            got = set(_within(cl, center, r))
            want = set(
                np.nonzero(np.linalg.norm(pts - center, axis=1) <= r)[0]
            )
            assert got == want

    def test_large_radius_widens_scan(self, rng):
        pts = rng.normal(size=(100, 3)) * 10.0
        cl = CellList(pts, cell_size=3.0)
        center = np.zeros(3)
        got = set(_within(cl, center, 12.0))
        want = set(np.nonzero(np.linalg.norm(pts, axis=1) <= 12.0)[0])
        assert got == want

    def test_empty_region(self, rng):
        pts = rng.normal(size=(50, 3))
        cl = CellList(pts, cell_size=2.0)
        assert _within(cl, [100.0, 100.0, 100.0], 1.0).size == 0

    def test_len(self, rng):
        assert len(CellList(rng.normal(size=(7, 3)))) == 7

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CellList(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            CellList(np.zeros((3, 3)), cell_size=0.0)
