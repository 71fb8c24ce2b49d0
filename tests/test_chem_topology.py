"""Topology: bond perception, components, rings, rotatable bonds."""

import numpy as np
import pytest

from repro.chem.topology import (
    adjacency,
    bond_vector_state,
    ring_bonds,
    rotatable_bonds,
    torsion_partition,
)

from tests.validate import connected_components


def butane_like():
    """C4 chain with H caps: C0-C1-C2-C3, H on C0 and C3."""
    symbols = ["C", "C", "C", "C", "H", "H"]
    coords = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.5, 0.0, 0.0],
            [3.0, 0.0, 0.0],
            [4.5, 0.0, 0.0],
            [-1.0, 0.3, 0.0],
            [5.5, 0.3, 0.0],
        ]
    )
    bonds = np.array([[0, 1], [1, 2], [2, 3], [0, 4], [3, 5]])
    return symbols, coords, bonds


def cyclobutane_like():
    """4-carbon ring."""
    symbols = ["C"] * 4
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [1.5, 1.5, 0.0], [0.0, 1.5, 0.0]]
    )
    bonds = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    return symbols, coords, bonds


class TestComponents:
    def test_single_component_chain(self):
        symbols, coords, bonds = butane_like()
        comps = connected_components(len(symbols), bonds)
        assert len(comps) == 1
        assert comps[0] == list(range(6))

    def test_disconnected(self):
        comps = connected_components(4, np.array([[0, 1]]))
        assert len(comps) == 3

    def test_no_bonds(self):
        comps = connected_components(3, np.empty((0, 2), dtype=int))
        assert comps == [[0], [1], [2]]

    def test_adjacency_symmetric(self):
        _s, _c, bonds = butane_like()
        adj = adjacency(6, bonds)
        for i, j in bonds:
            assert j in adj[i] and i in adj[j]


class TestRingBonds:
    def test_chain_has_no_rings(self):
        symbols, coords, bonds = butane_like()
        assert ring_bonds(len(symbols), bonds) == set()

    def test_cycle_fully_ring(self):
        symbols, coords, bonds = cyclobutane_like()
        rings = ring_bonds(4, bonds)
        assert rings == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_ring_with_tail(self):
        # ring 0-1-2-0 plus tail 2-3
        bonds = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])
        rings = ring_bonds(4, bonds)
        assert (2, 3) not in rings
        assert {(0, 1), (1, 2), (0, 2)} == rings

    def test_two_separate_rings(self):
        bonds = np.array(
            [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
        )
        rings = ring_bonds(6, bonds)
        assert (2, 3) not in rings
        assert len(rings) == 6


class TestRotatableBonds:
    def test_chain_central_bonds_rotatable(self):
        symbols, coords, bonds = butane_like()
        rb = rotatable_bonds(symbols, coords, bonds)
        assert (1, 2) in rb
        # Terminal C-C bonds qualify too: both carbons have another heavy
        # neighbor?  C0 has only H besides C1 -> (0,1) not rotatable.
        assert (0, 1) not in rb

    def test_ring_bonds_excluded(self):
        symbols, coords, bonds = cyclobutane_like()
        assert rotatable_bonds(symbols, coords, bonds) == []

    def test_bond_to_hydrogen_excluded(self):
        symbols, coords, bonds = butane_like()
        rb = rotatable_bonds(symbols, coords, bonds)
        assert all(symbols[i] != "H" and symbols[j] != "H" for i, j in rb)


class TestTorsionPartition:
    def test_chain_partition(self):
        symbols, coords, bonds = butane_like()
        side = torsion_partition(6, bonds, (1, 2))
        assert set(side) == {2, 3, 5}

    def test_direction_matters(self):
        symbols, coords, bonds = butane_like()
        side = torsion_partition(6, bonds, (2, 1))
        assert set(side) == {0, 1, 4}

    def test_ring_bond_rejected(self):
        _s, _c, bonds = cyclobutane_like()
        with pytest.raises(ValueError):
            torsion_partition(4, bonds, (0, 1))


class TestBondVectorState:
    def test_length(self):
        _s, coords, bonds = butane_like()
        vec = bond_vector_state(coords, bonds)
        assert vec.shape == (3 * len(bonds),)

    def test_values(self):
        coords = np.array([[0.0, 0, 0], [1.5, 0, 0]])
        vec = bond_vector_state(coords, np.array([[0, 1]]))
        np.testing.assert_allclose(vec, [1.5, 0.0, 0.0])

    def test_empty_bonds(self):
        assert bond_vector_state(np.zeros((3, 3)), np.empty((0, 2))).size == 0

    def test_translation_invariant(self):
        _s, coords, bonds = butane_like()
        a = bond_vector_state(coords, bonds)
        b = bond_vector_state(coords + 5.0, bonds)
        np.testing.assert_allclose(a, b)
