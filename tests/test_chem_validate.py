"""The builder-contract validators on hand-built molecules.

``tests/test_chem_builders.py`` runs them over generated complexes.
"""

import numpy as np
import pytest

from repro.chem.molecule import Molecule

from tests.validate import ValidationReport, validate_molecule


def carbonyl() -> Molecule:
    """C=O fragment with one attached H."""
    return Molecule.from_symbols(
        ["C", "O", "H"],
        [[0.0, 0.0, 0.0], [1.22, 0.0, 0.0], [-0.6, 0.9, 0.0]],
        bonds=[[0, 1], [0, 2]],
    )


class TestValidateMolecule:
    def test_good_molecule_passes(self):
        rep = validate_molecule(carbonyl())
        assert rep.ok and bool(rep)

    def test_nan_coords_flagged(self):
        mol = carbonyl()
        mol.coords[0, 0] = np.nan
        rep = validate_molecule(mol)
        assert not rep.ok
        assert any("coordinates" in e for e in rep.errors)

    def test_nan_charge_flagged(self):
        mol = carbonyl()
        mol.charges[0] = np.inf
        assert not validate_molecule(mol).ok

    def test_close_atoms_warn(self):
        mol = Molecule.from_symbols(
            ["C", "C"], [[0, 0, 0], [0.3, 0, 0]]
        )
        rep = validate_molecule(mol)
        assert rep.ok  # warning, not error
        assert rep.warnings

    def test_too_short_bond_is_error(self):
        mol = Molecule.from_symbols(
            ["C", "C"], [[0, 0, 0], [0.3, 0, 0]], bonds=[[0, 1]]
        )
        assert not validate_molecule(mol).ok

    def test_raise_if_failed(self):
        rep = ValidationReport(errors=["boom"])
        with pytest.raises(ValueError, match="boom"):
            rep.raise_if_failed()

    def test_raise_if_ok_is_noop(self):
        ValidationReport().raise_if_failed()
