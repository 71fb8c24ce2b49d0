"""Molecule: construction, geometry, editing, concatenation."""

import numpy as np
import pytest

from repro.chem.elements import ELEMENTS, element
from repro.chem.molecule import Molecule


def water() -> Molecule:
    return Molecule.from_symbols(
        ["O", "H", "H"],
        [[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]],
        bonds=[[0, 1], [0, 2]],
        name="water",
    )


class TestElements:
    def test_lookup_by_symbol_case_insensitive(self):
        assert element("c").symbol == "C"
        assert element(" N ").symbol == "N"

    def test_lookup_by_number(self):
        assert element(8).symbol == "O"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            element("XX")
        with pytest.raises(KeyError):
            element(999)

    def test_donor_acceptor_flags_sensible(self):
        assert ELEMENTS["O"].hbond_acceptor and ELEMENTS["N"].hbond_acceptor
        assert not ELEMENTS["C"].hbond_donor
        assert not ELEMENTS["H"].hbond_acceptor


class TestConstruction:
    def test_from_symbols_fills_parameters(self):
        w = water()
        assert w.n_atoms == 3
        assert w.sigma[0] == ELEMENTS["O"].sigma
        assert bool(w.hbond_donor[0]) is True
        assert bool(w.hbond_donor[1]) is False

    def test_coord_shape_enforced(self):
        with pytest.raises(ValueError):
            Molecule.from_symbols(["C"], [[0.0, 0.0]])

    def test_bond_index_bounds_enforced(self):
        with pytest.raises(ValueError):
            Molecule.from_symbols(
                ["C", "C"], [[0, 0, 0], [1.5, 0, 0]], bonds=[[0, 5]]
            )

    def test_self_bond_rejected(self):
        with pytest.raises(ValueError):
            Molecule.from_symbols(
                ["C", "C"], [[0, 0, 0], [1.5, 0, 0]], bonds=[[1, 1]]
            )

    def test_arrays_contiguous(self):
        w = water()
        assert w.coords.flags["C_CONTIGUOUS"]
        assert w.charges.flags["C_CONTIGUOUS"]


class TestGeometry:
    def test_center_of_mass_weighted_toward_oxygen(self):
        w = water()
        com = w.center_of_mass()
        cen = w.centroid()
        # COM is closer to the O atom than the unweighted centroid.
        assert np.linalg.norm(com - w.coords[0]) < np.linalg.norm(
            cen - w.coords[0]
        )

    def test_radius_of_gyration_positive(self):
        assert water().radius_of_gyration() > 0.0

    def test_bounding_radius_covers_all_atoms(self):
        w = water()
        r = w.bounding_radius()
        d = np.linalg.norm(w.coords - w.centroid(), axis=1)
        assert r == pytest.approx(d.max())


class TestEditing:
    def test_with_coords_shares_parameters(self):
        w = water()
        w2 = w.with_coords(w.coords + 1.0)
        assert w2.charges is w.charges  # shared by design
        assert not np.shares_memory(w2.coords, w.coords)

    def test_masses_looked_up_once_and_shared(self, monkeypatch):
        from repro.chem import elements

        calls = []
        real = elements.element
        monkeypatch.setattr(
            elements,
            "element",
            lambda s: calls.append(s) or real(s),
        )
        w = water()
        calls.clear()
        m = w.masses
        assert len(calls) == w.n_atoms
        assert w.masses is m and not m.flags.writeable
        moved = w.with_coords(w.coords + 1.0)
        assert moved.masses is m
        assert moved.translated([0.0, 1.0, 0.0]).masses is m
        np.testing.assert_allclose(
            moved.center_of_mass(), w.center_of_mass() + 1.0
        )
        assert len(calls) == w.n_atoms  # no further look-ups

    def test_with_coords_shape_checked(self):
        with pytest.raises(ValueError):
            water().with_coords(np.zeros((5, 3)))

    def test_translated(self):
        w = water().translated([1.0, 0.0, 0.0])
        assert w.coords[0, 0] == pytest.approx(1.0)

    def test_copy_is_deep(self):
        w = water()
        c = w.copy()
        c.coords[0, 0] = 99.0
        assert w.coords[0, 0] == 0.0

    def test_concatenate_offsets_bonds(self):
        w = water()
        both = Molecule.concatenate([w, w], name="dimer")
        assert both.n_atoms == 6
        assert both.n_bonds == 4
        assert both.bonds.max() == 5
        assert both.name == "dimer"

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ValueError):
            Molecule.concatenate([])

    def test_repr_mentions_counts(self):
        assert "atoms=3" in repr(water())
