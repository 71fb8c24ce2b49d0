"""Ligand libraries and the screening driver over them."""

import numpy as np
import pytest

from repro.metadock.library import generate_library
from repro.screening.driver import ScreeningConfig, run_screening

from tests.conftest import SMALL_COMPLEX_CFG


def _screen(built, library, **kw):
    return run_screening(built, library, ScreeningConfig(**kw)).hits


class TestLibrary:
    def test_count_and_ids(self):
        lib = generate_library(SMALL_COMPLEX_CFG, 5, seed=1)
        assert len(lib) == 5
        assert [e.compound_id for e in lib] == [
            f"LIG{k:05d}" for k in range(5)
        ]

    def test_size_bounds(self):
        lib = generate_library(
            SMALL_COMPLEX_CFG, 6, seed=2, min_atoms=6, max_atoms=9
        )
        assert all(6 <= e.n_atoms <= 9 for e in lib)

    def test_deterministic(self):
        a = generate_library(SMALL_COMPLEX_CFG, 3, seed=3)
        b = generate_library(SMALL_COMPLEX_CFG, 3, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.ligand.coords, y.ligand.coords)

    def test_diverse(self):
        lib = generate_library(SMALL_COMPLEX_CFG, 4, seed=4)
        coords = [e.ligand.coords for e in lib]
        shapes_or_values_differ = any(
            coords[0].shape != c.shape or not np.array_equal(coords[0], c)
            for c in coords[1:]
        )
        assert shapes_or_values_differ

    def test_zero_ligands(self):
        assert generate_library(SMALL_COMPLEX_CFG, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_library(SMALL_COMPLEX_CFG, -1)


class TestScreening:
    def test_ranked_descending(self, small_complex):
        lib = generate_library(SMALL_COMPLEX_CFG, 3, seed=5)
        hits = _screen(
            small_complex, lib, strategy="random", budget=60, seed=0
        )
        scores = [h.best_score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_top_k(self, small_complex):
        lib = generate_library(SMALL_COMPLEX_CFG, 4, seed=6)
        hits = _screen(
            small_complex, lib, strategy="random", budget=50, seed=0, top_k=2
        )
        assert len(hits) == 2

    def test_montecarlo_strategy(self, small_complex):
        lib = generate_library(SMALL_COMPLEX_CFG, 2, seed=7)
        hits = _screen(
            small_complex, lib, strategy="montecarlo", budget=60, seed=0
        )
        assert len(hits) == 2

    def test_unknown_strategy_rejected(self, small_complex):
        lib = generate_library(SMALL_COMPLEX_CFG, 1, seed=8)
        with pytest.raises(ValueError):
            _screen(small_complex, lib, strategy="quantum", budget=10)

    def test_deterministic(self, small_complex):
        lib = generate_library(SMALL_COMPLEX_CFG, 2, seed=9)
        a = _screen(small_complex, lib, strategy="random", budget=50, seed=3)
        b = _screen(small_complex, lib, strategy="random", budget=50, seed=3)
        assert [h.best_score for h in a] == [h.best_score for h in b]
