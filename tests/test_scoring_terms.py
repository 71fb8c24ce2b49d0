"""Individual Eq. 1 terms: electrostatics, Lennard-Jones, hydrogen bond."""

import math

import numpy as np
import pytest

from repro.constants import COULOMB_CONSTANT, MIN_DISTANCE
from repro.scoring.hbond import (
    HBOND_DEPTH,
    HBOND_R0,
    eligible_pairs_mask,
    hbond_1210_pair,
    hbond_angle_factors,
    hbond_coefficients,
    hbond_energy_matrix,
)
from repro.scoring.lennard_jones import (
    combine_lj,
    lennard_jones_energy,
    lennard_jones_energy_matrix,
    lj_minimum,
    lj_pair,
)
from repro.scoring.pairwise import (
    direction_vectors,
    pairwise_distances,
)

from tests.electrostatics import (
    coulomb_pair,
    electrostatic_energy,
    electrostatic_energy_matrix,
)


class TestPairwiseDistances:
    def test_matches_naive(self, rng):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(5, 3))
        d = pairwise_distances(a, b)
        naive = np.linalg.norm(a[:, None] - b[None, :], axis=-1)
        np.testing.assert_allclose(d, np.maximum(naive, MIN_DISTANCE), atol=1e-10)

    def test_clamped_at_min_distance(self):
        d = pairwise_distances(np.zeros((1, 3)), np.zeros((1, 3)))
        assert d[0, 0] == pytest.approx(MIN_DISTANCE)


class TestElectrostatics:
    def test_single_pair_value(self):
        qa, qb = np.array([1.0]), np.array([-1.0])
        d = np.array([[2.0]])
        e = electrostatic_energy(qa, qb, d)
        assert e == pytest.approx(-COULOMB_CONSTANT / 2.0)

    def test_opposite_charges_attract(self):
        d = np.array([[3.0]])
        assert electrostatic_energy(np.array([1.0]), np.array([-1.0]), d) < 0
        assert electrostatic_energy(np.array([1.0]), np.array([1.0]), d) > 0

    def test_bilinear_form_matches_matrix_sum(self, rng):
        qa = rng.normal(size=6)
        qb = rng.normal(size=4)
        d = pairwise_distances(rng.normal(size=(6, 3)), rng.normal(size=(4, 3)))
        total = electrostatic_energy(qa, qb, d)
        mat = electrostatic_energy_matrix(qa, qb, d)
        assert total == pytest.approx(mat.sum())

    def test_distance_dependent_dielectric_weakens(self):
        d = np.array([[3.0]])
        plain = electrostatic_energy(np.array([1.0]), np.array([1.0]), d)
        screened = electrostatic_energy(
            np.array([1.0]), np.array([1.0]), d, distance_dependent=True
        )
        assert 0 < screened < plain

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            electrostatic_energy(
                np.ones(3), np.ones(2), np.ones((2, 2))
            )

    def test_pair_helper_clamps(self):
        assert coulomb_pair(1.0, 1.0, 0.0) == coulomb_pair(1.0, 1.0, MIN_DISTANCE)

    @pytest.mark.parametrize("distance_dependent", [False, True])
    def test_live_kernel_matches_reference(
        self, small_complex, distance_dependent
    ):
        from repro.scoring.composite import interaction_breakdown

        rec, lig = small_complex.receptor, small_complex.ligand_crystal
        live = interaction_breakdown(
            rec, lig, distance_dependent_dielectric=distance_dependent
        ).electrostatic
        ref = electrostatic_energy(
            rec.charges,
            lig.charges,
            pairwise_distances(rec.coords, lig.coords),
            distance_dependent=distance_dependent,
        )
        assert live == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestLennardJones:
    def test_minimum_location_and_depth(self):
        sigma, eps = 3.4, 0.2
        r0 = lj_minimum(sigma)
        assert lj_pair(sigma, eps, r0) == pytest.approx(-eps)
        # Derivative sign change around the minimum.
        assert lj_pair(sigma, eps, r0 * 0.99) > -eps
        assert lj_pair(sigma, eps, r0 * 1.01) > -eps

    def test_repulsive_wall(self):
        assert lj_pair(3.4, 0.2, 1.0) > 1e3

    def test_vanishes_at_long_range(self):
        assert abs(lj_pair(3.4, 0.2, 50.0)) < 1e-6
        assert abs(lj_pair(3.4, 0.2, 200.0)) < abs(lj_pair(3.4, 0.2, 50.0))

    def test_combination_rules(self):
        sig, eps = combine_lj(
            np.array([3.0]), np.array([0.1]), np.array([4.0]), np.array([0.4])
        )
        assert sig[0, 0] == pytest.approx(3.5)
        assert eps[0, 0] == pytest.approx(0.2)

    def test_matrix_total_agree(self, rng):
        sa, ea = np.abs(rng.normal(size=5)) + 3, np.abs(rng.normal(size=5)) * 0.1 + 0.01
        sb, eb = np.abs(rng.normal(size=4)) + 3, np.abs(rng.normal(size=4)) * 0.1 + 0.01
        d = np.abs(rng.normal(size=(5, 4))) + 3.0
        total = lennard_jones_energy(sa, ea, sb, eb, d)
        assert total == pytest.approx(
            lennard_jones_energy_matrix(sa, ea, sb, eb, d).sum()
        )


class TestHbond:
    def test_coefficients_minimum(self):
        c, d = hbond_coefficients()
        r0 = HBOND_R0
        # E'(r0) = 0 for the 12-10 form.
        deriv = -12 * c / r0**13 + 10 * d / r0**11
        assert deriv == pytest.approx(0.0, abs=1e-9)
        assert hbond_1210_pair(r0) == pytest.approx(-HBOND_DEPTH)

    def test_eligibility_symmetric_roles(self):
        donor_a = np.array([True, False])
        acc_a = np.array([False, False])
        donor_b = np.array([False])
        acc_b = np.array([True])
        mask = eligible_pairs_mask(donor_a, acc_a, donor_b, acc_b)
        assert mask[0, 0] and not mask[1, 0]

    def test_acceptor_side_a_counts(self):
        mask = eligible_pairs_mask(
            np.array([False]), np.array([True]),
            np.array([True]), np.array([False]),
        )
        assert mask[0, 0]

    def test_angle_factors_aligned(self):
        ca = np.array([[0.0, 0.0, 0.0]])
        cb = np.array([[0.0, 0.0, 3.0]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        cos, sin = hbond_angle_factors(ca, cb, dirs)
        assert cos[0, 0] == pytest.approx(1.0)
        assert sin[0, 0] == pytest.approx(0.0)

    def test_angle_factors_perpendicular(self):
        ca = np.array([[0.0, 0.0, 0.0]])
        cb = np.array([[3.0, 0.0, 0.0]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        cos, sin = hbond_angle_factors(ca, cb, dirs)
        assert cos[0, 0] == pytest.approx(0.0)
        assert sin[0, 0] == pytest.approx(1.0)

    def test_opposed_direction_clamped_to_zero(self):
        ca = np.array([[0.0, 0.0, 0.0]])
        cb = np.array([[0.0, 0.0, -3.0]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        cos, _sin = hbond_angle_factors(ca, cb, dirs)
        assert cos[0, 0] == 0.0

    def test_zero_direction_isotropic(self):
        ca = np.zeros((1, 3))
        cb = np.array([[3.0, 0.0, 0.0]])
        cos, sin = hbond_angle_factors(ca, cb, np.zeros((1, 3)))
        assert cos[0, 0] == 1.0 and sin[0, 0] == 0.0

    def test_correction_replaces_lj_when_aligned(self):
        # Fully aligned pair at r0: correction = E_1210 - E_LJ, so
        # LJ + correction == pure 12-10 well depth.
        d = np.array([[HBOND_R0]])
        mask = np.array([[True]])
        cos = np.array([[1.0]])
        sin = np.array([[0.0]])
        sig = np.array([[3.2]])
        eps = np.array([[0.15]])
        corr = hbond_energy_matrix(d, mask, cos, sin, sig, eps)
        e_lj = lj_pair(3.2, 0.15, HBOND_R0)
        assert corr[0, 0] + e_lj == pytest.approx(-HBOND_DEPTH)

    def test_masked_pairs_zero(self):
        d = np.array([[2.9]])
        out = hbond_energy_matrix(
            d,
            np.array([[False]]),
            np.array([[1.0]]),
            np.array([[0.0]]),
            np.array([[3.2]]),
            np.array([[0.2]]),
        )
        assert out[0, 0] == 0.0


class TestDirectionVectors:
    def test_no_bonds_zero(self):
        dirs = direction_vectors(np.zeros((3, 3)), np.empty((0, 2)))
        np.testing.assert_array_equal(dirs, 0.0)

    def test_points_away_from_neighbor(self):
        coords = np.array([[0.0, 0, 0], [1.5, 0, 0]])
        dirs = direction_vectors(coords, np.array([[0, 1]]))
        np.testing.assert_allclose(dirs[0], [-1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(dirs[1], [1, 0, 0], atol=1e-12)

    def test_unit_norm_for_bonded(self):
        coords = np.array([[0.0, 0, 0], [1.5, 0, 0], [0, 1.5, 0]])
        dirs = direction_vectors(coords, np.array([[0, 1], [0, 2]]))
        assert np.linalg.norm(dirs[0]) == pytest.approx(1.0)

    def test_symmetric_neighbors_give_zero(self):
        # Atom exactly between two neighbors: direction degenerates to 0.
        coords = np.array([[0.0, 0, 0], [-1.5, 0, 0], [1.5, 0, 0]])
        dirs = direction_vectors(
            coords, np.array([[0, 1], [0, 2]])
        )
        np.testing.assert_allclose(dirs[0], 0.0, atol=1e-12)
