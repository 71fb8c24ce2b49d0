"""Rigid transforms: rotation matrices, quaternion algebra, RMSD."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.transforms import Quaternion, axis_angle_matrix

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
unit_axes = st.sampled_from(["x", "y", "z"])


class TestAxisAngleMatrix:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(axis_angle_matrix("x", 0.0), np.eye(3))

    def test_quarter_turn_z(self):
        m = axis_angle_matrix("z", math.pi / 2)
        np.testing.assert_allclose(m @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_arbitrary_axis_normalized(self):
        m1 = axis_angle_matrix([2, 0, 0], 0.7)
        m2 = axis_angle_matrix([1, 0, 0], 0.7)
        np.testing.assert_allclose(m1, m2)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            axis_angle_matrix([0, 0, 0], 1.0)

    def test_unknown_axis_name_rejected(self):
        with pytest.raises(ValueError):
            axis_angle_matrix("w", 1.0)

    @given(unit_axes, angles)
    def test_orthogonality(self, axis, angle):
        m = axis_angle_matrix(axis, angle)
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)

    @given(unit_axes, angles)
    def test_determinant_one(self, axis, angle):
        m = axis_angle_matrix(axis, angle)
        assert np.linalg.det(m) == pytest.approx(1.0)

    @given(unit_axes, angles, angles)
    def test_same_axis_angles_add(self, axis, a, b):
        m = axis_angle_matrix(axis, a) @ axis_angle_matrix(axis, b)
        np.testing.assert_allclose(
            m, axis_angle_matrix(axis, a + b), atol=1e-10
        )


class TestQuaternion:
    def test_identity_matrix(self):
        np.testing.assert_allclose(Quaternion.identity().to_matrix(), np.eye(3))

    @given(unit_axes, angles)
    def test_matches_axis_angle_matrix(self, axis, angle):
        q = Quaternion.from_axis_angle(axis, angle)
        np.testing.assert_allclose(
            q.to_matrix(), axis_angle_matrix(axis, angle), atol=1e-12
        )

    @given(angles, angles)
    def test_hamilton_product_composes_rotations(self, a, b):
        qa = Quaternion.from_axis_angle("z", a)
        qb = Quaternion.from_axis_angle("x", b)
        np.testing.assert_allclose(
            (qa * qb).to_matrix(),
            qa.to_matrix() @ qb.to_matrix(),
            atol=1e-12,
        )

    def test_normalized_unit_norm(self):
        q = Quaternion(3.0, 4.0, 0.0, 0.0).normalized()
        assert q.norm() == pytest.approx(1.0)

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0, 0, 0, 0).normalized()

    def test_random_is_unit_and_deterministic(self):
        q1 = Quaternion.random(5)
        q2 = Quaternion.random(5)
        assert q1.norm() == pytest.approx(1.0)
        assert q1 == q2

    def test_random_uniform_coverage(self):
        # Rotated z-axes should land in all octants over many draws.
        rng = np.random.default_rng(0)
        z = np.array([0.0, 0.0, 1.0])
        pts = np.array(
            [Quaternion.random(rng).to_matrix() @ z for _ in range(256)]
        )
        for d in range(3):
            assert (pts[:, d] > 0.3).any() and (pts[:, d] < -0.3).any()

    def test_minus_q_same_rotation(self):
        q = Quaternion.from_axis_angle("x", 1.0)
        neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
        np.testing.assert_allclose(q.to_matrix(), neg.to_matrix())

    def test_from_array_roundtrip(self):
        q = Quaternion.from_axis_angle([1, 1, 0], 0.4)
        q2 = Quaternion.from_array(q.to_array())
        np.testing.assert_allclose(q2.to_array(), q.to_array())
