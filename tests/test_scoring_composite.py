"""Composite scorer: breakdown, sign convention, batching, symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.molecule import Molecule
from repro.chem.transforms import Quaternion
from repro.scoring.composite import (
    interaction_breakdown,
    interaction_score,
    score_pose_batch,
)


def random_molecules(seed: int, n_a: int = 9, n_b: int = 5):
    rng = np.random.default_rng(seed)
    a = Molecule.from_symbols(
        list(rng.choice(["C", "N", "O", "H"], size=n_a)),
        rng.normal(size=(n_a, 3)) * 4.0,
        bonds=[[i, i + 1] for i in range(n_a - 1)],
    )
    b = Molecule.from_symbols(
        list(rng.choice(["C", "N", "O", "H"], size=n_b)),
        rng.normal(size=(n_b, 3)) * 2.0 + np.array([12.0, 0, 0]),
        bonds=[[i, i + 1] for i in range(n_b - 1)],
    )
    return a, b


class TestBreakdown:
    def test_score_is_negated_energy(self):
        a, b = random_molecules(0)
        bd = interaction_breakdown(a, b)
        assert bd.score == pytest.approx(-bd.energy)
        assert interaction_score(a, b) == pytest.approx(-bd.energy)

    def test_terms_sum_to_energy(self):
        a, b = random_molecules(1)
        bd = interaction_breakdown(a, b)
        assert bd.energy == pytest.approx(
            bd.electrostatic + bd.lennard_jones + bd.hydrogen_bond
        )

    def test_long_range_score_decays_as_monopole(self):
        # With non-zero net charges the Coulomb monopole term survives at
        # long range (1/r decay); LJ and H-bond must be gone.
        a, b = random_molecules(2)
        s500 = interaction_score(a, b.translated([500.0, 0.0, 0.0]))
        s5000 = interaction_score(a, b.translated([5000.0, 0.0, 0.0]))
        assert abs(s5000) < abs(s500) < 10.0
        assert abs(s5000) == pytest.approx(abs(s500) / 10.0, rel=0.05)

    def test_overlap_score_hugely_negative(self):
        a, _ = random_molecules(3)
        clone = a.copy()
        assert interaction_score(a, clone) < -1e6

    def test_no_hbond_pairs_zero_term(self):
        rng = np.random.default_rng(4)
        a = Molecule.from_symbols(["C"] * 4, rng.normal(size=(4, 3)) * 3)
        b = Molecule.from_symbols(
            ["C"] * 3, rng.normal(size=(3, 3)) * 3 + 8.0
        )
        bd = interaction_breakdown(a, b)
        assert bd.hydrogen_bond == 0.0


class TestSymmetries:
    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_joint_translation_invariance(self, seed):
        a, b = random_molecules(seed)
        shift = np.array([3.7, -1.2, 9.9])
        s1 = interaction_score(a, b)
        s2 = interaction_score(a.translated(shift), b.translated(shift))
        assert s2 == pytest.approx(s1, rel=1e-9)

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_joint_rotation_invariance(self, seed):
        a, b = random_molecules(seed)
        rot = Quaternion.random(seed + 100).to_matrix()
        a2 = a.with_coords(a.coords @ rot.T)
        b2 = b.with_coords(b.coords @ rot.T)
        assert interaction_score(a2, b2) == pytest.approx(
            interaction_score(a, b), rel=1e-9
        )

    def test_moving_one_molecule_changes_score(self):
        a, b = random_molecules(7)
        s1 = interaction_score(a, b)
        s2 = interaction_score(a, b.translated([2.0, 0, 0]))
        assert s1 != pytest.approx(s2)


class TestBatchScoring:
    def test_matches_single_pose(self):
        a, b = random_molecules(8)
        batch = np.stack(
            [b.coords, b.coords + [1.0, 0, 0], b.coords + [0, 2.0, 0]]
        )
        scores = score_pose_batch(a, b, batch)
        for k in range(3):
            expected = interaction_score(a, b.with_coords(batch[k]))
            assert scores[k] == pytest.approx(expected, rel=1e-9)

    def test_shape_validated(self):
        a, b = random_molecules(10)
        with pytest.raises(ValueError):
            score_pose_batch(a, b, np.zeros((2, b.n_atoms + 1, 3)))

    def test_hbond_toggle(self):
        # Guaranteed donor/acceptor pair at H-bond range.
        a = Molecule.from_symbols(
            ["N", "C"], [[0.0, 0, 0], [1.4, 0, 0]], bonds=[[0, 1]]
        )
        b = Molecule.from_symbols(["O"], [[-2.9, 0.0, 0.0]])
        close = np.stack([b.coords])
        with_hb = score_pose_batch(a, b, close, include_hbond=True)
        without = score_pose_batch(a, b, close, include_hbond=False)
        assert with_hb[0] != pytest.approx(without[0])

    def test_empty_batch(self):
        a, b = random_molecules(12)
        assert score_pose_batch(a, b, np.zeros((0, b.n_atoms, 3))).size == 0
