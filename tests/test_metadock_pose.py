"""Pose parameterization: moves, codecs, torsion application."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.molecule import Molecule
from repro.metadock.pose import Pose, TorsionDriver, apply_pose, random_pose


def chain_template(n: int = 5) -> Molecule:
    # Zig-zag chain: atoms off the bond axes so torsions actually move
    # them (a collinear chain is torsion-invariant).
    coords = np.stack(
        [
            np.arange(n) * 1.3,
            0.6 * (np.arange(n) % 2),
            0.2 * np.arange(n),
        ],
        axis=1,
    )
    coords = coords - coords.mean(axis=0)
    return Molecule.from_symbols(
        ["C"] * n, coords, bonds=[[i, i + 1] for i in range(n - 1)]
    )


class TestPoseMoves:
    def test_identity(self):
        p = Pose.identity()
        np.testing.assert_array_equal(p.translation, 0.0)
        np.testing.assert_array_equal(p.orientation.to_matrix(), np.eye(3))

    def test_translated(self):
        p = Pose.identity().translated([1, 2, 3])
        np.testing.assert_allclose(p.translation, [1, 2, 3])

    def test_translations_compose(self):
        p = Pose.identity().translated([1, 0, 0]).translated([0, 1, 0])
        np.testing.assert_allclose(p.translation, [1, 1, 0])

    def test_rotation_composes_exactly(self):
        p = Pose.identity()
        for _ in range(720):
            p = p.rotated("z", math.radians(0.5))
        # 720 x 0.5 deg = 360 deg = identity (no drift).
        np.testing.assert_allclose(
            p.orientation.to_matrix(), np.eye(3), atol=1e-9
        )

    def test_inverse_rotation_cancels(self):
        p = Pose.identity().rotated("x", 0.3).rotated("x", -0.3)
        np.testing.assert_allclose(
            p.orientation.to_matrix(), np.eye(3), atol=1e-12
        )

    def test_twist_bounds_checked(self):
        p = Pose.identity(n_torsions=2)
        with pytest.raises(IndexError):
            p.twisted(2, 0.1)
        with pytest.raises(IndexError):
            Pose.identity().twisted(0, 0.1)

    def test_twist_accumulates(self):
        p = Pose.identity(2).twisted(0, 0.2).twisted(0, 0.3)
        assert p.torsions[0] == pytest.approx(0.5)
        assert p.torsions[1] == 0.0

    def test_immutability(self):
        p = Pose.identity()
        q = p.translated([1, 0, 0])
        np.testing.assert_array_equal(p.translation, 0.0)
        assert q is not p


class TestPoseVectorCodec:
    @given(st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip(self, n_torsions):
        rng = np.random.default_rng(n_torsions)
        p = random_pose(rng, np.zeros(3), 5.0, n_torsions)
        v = p.to_vector()
        assert v.shape == (7 + n_torsions,)
        q = Pose.from_vector(v, n_torsions)
        np.testing.assert_allclose(q.translation, p.translation)
        np.testing.assert_allclose(
            q.orientation.to_matrix(), p.orientation.to_matrix(), atol=1e-9
        )
        np.testing.assert_allclose(q.torsions, p.torsions)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Pose.from_vector(np.zeros(8), n_torsions=0)

    def test_from_vector_normalizes_quaternion(self):
        v = np.array([0, 0, 0, 2.0, 0, 0, 0])
        p = Pose.from_vector(v)
        assert p.orientation.norm() == pytest.approx(1.0)


class TestApplyPose:
    def test_identity_is_noop(self):
        mol = chain_template()
        out = apply_pose(mol, Pose.identity())
        np.testing.assert_allclose(out, mol.coords)

    def test_translation_moves_centroid(self):
        mol = chain_template()
        out = apply_pose(mol, Pose.identity().translated([5, 0, 0]))
        np.testing.assert_allclose(out.mean(axis=0), [5, 0, 0], atol=1e-12)

    def test_rotation_preserves_shape(self):
        mol = chain_template()
        pose = Pose.identity().rotated([1, 1, 1], 0.7)
        out = apply_pose(mol, pose)
        d_in = np.linalg.norm(mol.coords[0] - mol.coords[-1])
        d_out = np.linalg.norm(out[0] - out[-1])
        assert d_out == pytest.approx(d_in)

    def test_torsions_without_driver_rejected(self):
        mol = chain_template()
        with pytest.raises(ValueError):
            apply_pose(mol, Pose.identity(1))


class TestTorsionDriver:
    def test_rotates_only_one_side(self):
        mol = chain_template(5)
        driver = TorsionDriver(mol, [(1, 2)])
        out = driver.apply(mol.coords, [math.pi / 2])
        # i-side atoms {0, 1} untouched; atom 2 lies on the rotation axis
        # (the 1->2 bond) so it stays; atoms 3, 4 move.
        np.testing.assert_allclose(out[:2], mol.coords[:2])
        np.testing.assert_allclose(out[2], mol.coords[2], atol=1e-9)
        assert not np.allclose(out[3:], mol.coords[3:])

    def test_bond_lengths_preserved(self):
        mol = chain_template(6)
        driver = TorsionDriver(mol, [(1, 2), (3, 4)])
        out = driver.apply(mol.coords, [0.8, -1.1])
        for i, j in mol.bonds:
            before = np.linalg.norm(mol.coords[j] - mol.coords[i])
            after = np.linalg.norm(out[j] - out[i])
            assert after == pytest.approx(before, abs=1e-9)

    def test_zero_angles_noop(self):
        mol = chain_template()
        driver = TorsionDriver(mol, [(1, 2)])
        out = driver.apply(mol.coords, [0.0])
        np.testing.assert_array_equal(out, mol.coords)

    def test_wrong_torsion_count_rejected(self):
        mol = chain_template()
        driver = TorsionDriver(mol, [(1, 2)])
        with pytest.raises(ValueError):
            driver.apply(mol.coords, [0.1, 0.2])

    def test_full_turn_is_identity(self):
        mol = chain_template()
        driver = TorsionDriver(mol, [(1, 2)])
        out = driver.apply(mol.coords, [2 * math.pi])
        np.testing.assert_allclose(out, mol.coords, atol=1e-9)


class TestRandomPose:
    def test_within_radius(self, rng):
        center = np.array([1.0, 2.0, 3.0])
        for _ in range(50):
            p = random_pose(rng, center, 4.0)
            assert np.linalg.norm(p.translation - center) <= 4.0 + 1e-9

    def test_torsions_in_range(self, rng):
        p = random_pose(rng, np.zeros(3), 1.0, n_torsions=3)
        assert len(p.torsions) == 3
        assert all(-math.pi <= t <= math.pi for t in p.torsions)

    def test_deterministic_given_rng(self):
        a = random_pose(np.random.default_rng(5), np.zeros(3), 2.0)
        b = random_pose(np.random.default_rng(5), np.zeros(3), 2.0)
        np.testing.assert_array_equal(a.translation, b.translation)
