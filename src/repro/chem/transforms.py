"""Rotations: axis-angle matrices and unit quaternions.

METADOCK explores translational and rotational degrees of freedom of the
ligand (paper Section 2.1).  The engine composes per-step rotations about
the ligand's center of mass, so rotations must compose exactly (no drift);
we keep orientation state as a unit quaternion and convert to a matrix
only when moving coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_generator

_AXES = {"x": 0, "y": 1, "z": 2}


def axis_angle_matrix(axis, angle_rad: float) -> np.ndarray:
    """Rotation matrix for ``angle_rad`` about ``axis`` (Rodrigues).

    ``axis`` is a 3-vector (normalized internally) or one of "x"/"y"/"z".
    """
    if isinstance(axis, str):
        v = np.zeros(3)
        try:
            v[_AXES[axis.lower()]] = 1.0
        except KeyError:
            raise ValueError(f"unknown axis name {axis!r}") from None
        axis = v
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("rotation axis must be non-zero")
    a = a / norm
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    k = np.array(
        [[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]]
    )
    return np.eye(3) + s * k + (1 - c) * (k @ k)


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion (w, x, y, z) representing a rotation.

    Immutable; operations return new instances.  Construction does not
    normalize -- use :meth:`normalized` or the factory methods, which do.
    """

    w: float
    x: float
    y: float
    z: float

    # -- factories --------------------------------------------------------
    @staticmethod
    def identity() -> "Quaternion":
        """The no-rotation quaternion."""
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis, angle_rad: float) -> "Quaternion":
        """Quaternion rotating by ``angle_rad`` about ``axis``."""
        if isinstance(axis, str):
            v = np.zeros(3)
            try:
                v[_AXES[axis.lower()]] = 1.0
            except KeyError:
                raise ValueError(f"unknown axis name {axis!r}") from None
            axis = v
        a = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(a)
        if norm == 0:
            raise ValueError("rotation axis must be non-zero")
        a = a / norm
        half = angle_rad / 2.0
        s = math.sin(half)
        return Quaternion(math.cos(half), a[0] * s, a[1] * s, a[2] * s)

    @staticmethod
    def from_array(arr) -> "Quaternion":
        """Build from a length-4 (w, x, y, z) array, normalizing."""
        w, x, y, z = (float(v) for v in np.asarray(arr, dtype=float))
        return Quaternion(w, x, y, z).normalized()

    @staticmethod
    def random(rng: SeedLike = None) -> "Quaternion":
        """Uniform random rotation (Shoemake's subgroup algorithm)."""
        gen = as_generator(rng)
        u1, u2, u3 = gen.uniform(size=3)
        a, b = math.sqrt(1 - u1), math.sqrt(u1)
        return Quaternion(
            a * math.sin(2 * math.pi * u2),
            a * math.cos(2 * math.pi * u2),
            b * math.sin(2 * math.pi * u3),
            b * math.cos(2 * math.pi * u3),
        )

    # -- algebra -----------------------------------------------------------
    def normalized(self) -> "Quaternion":
        """Rescale to unit norm (raises on the zero quaternion)."""
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if n == 0:
            raise ValueError("cannot normalize zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product: ``self * other`` applies ``other`` first."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def norm(self) -> float:
        """Euclidean norm of the 4-vector."""
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def to_matrix(self) -> np.ndarray:
        """3x3 rotation matrix of the (normalized) quaternion."""
        q = self.normalized()
        w, x, y, z = q.w, q.x, q.y, q.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )

    def to_array(self) -> np.ndarray:
        """(w, x, y, z) as a length-4 array."""
        return np.array([self.w, self.x, self.y, self.z])
