"""Molecular descriptors."""

import numpy as np
import pytest

from repro.chem.descriptors import (
    Descriptors,
    compute_descriptors,
    library_diversity,
)
from repro.chem.molecule import Molecule


class TestComputeDescriptors:
    def test_water_values(self):
        w = Molecule.from_symbols(
            ["O", "H", "H"],
            [[0.0, 0, 0], [0.96, 0, 0], [-0.24, 0.93, 0]],
            bonds=[[0, 1], [0, 2]],
        )
        d = compute_descriptors(w)
        assert d.n_atoms == 3
        assert d.n_heavy_atoms == 1
        assert d.molecular_weight == pytest.approx(18.015, abs=0.01)
        assert d.n_rotatable_bonds == 0
        assert d.n_hbond_donors == 1  # the oxygen
        assert d.n_hbond_acceptors == 1
        assert d.radius_of_gyration > 0

    def test_ligand_descriptors(self, small_complex):
        d = compute_descriptors(small_complex.ligand_crystal)
        assert d.n_atoms == small_complex.ligand_crystal.n_atoms
        assert d.net_charge == pytest.approx(
            small_complex.ligand_crystal.charges.sum()
        )
        assert d.n_rotatable_bonds >= 2
        assert d.max_extent >= d.radius_of_gyration

    def test_lipinski_small_molecule_zero_violations(self, small_complex):
        d = compute_descriptors(small_complex.ligand_crystal)
        assert d.lipinski_violations() == 0

    def test_lipinski_violations_counted(self):
        d = Descriptors(
            n_atoms=100, n_heavy_atoms=60, molecular_weight=700.0,
            net_charge=0.0, n_rotatable_bonds=10, n_hbond_donors=8,
            n_hbond_acceptors=12, radius_of_gyration=6.0, max_extent=10.0,
        )
        assert d.lipinski_violations() == 3

    def test_vector_shape(self, small_complex):
        v = compute_descriptors(small_complex.ligand_crystal).as_vector()
        assert v.shape == (9,)


class TestLibraryDiversity:
    def test_identical_library_zero(self, small_complex):
        lig = small_complex.ligand_crystal
        assert library_diversity([lig, lig.copy()]) == 0.0

    def test_diverse_library_positive(self):
        from repro.metadock.library import generate_library
        from tests.conftest import SMALL_COMPLEX_CFG

        lib = generate_library(SMALL_COMPLEX_CFG, 4, seed=0)
        assert library_diversity([e.ligand for e in lib]) > 0.0

    def test_singleton_zero(self, small_complex):
        assert library_diversity([small_complex.ligand_crystal]) == 0.0
