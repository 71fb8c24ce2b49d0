"""Molecular descriptors."""

import numpy as np
import pytest

from repro.chem.descriptors import compute_descriptors
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

    def test_vector_shape(self, small_complex):
        v = compute_descriptors(small_complex.ligand_crystal).as_vector()
        assert v.shape == (9,)
