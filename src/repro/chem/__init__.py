"""Molecular substrate: atoms, molecules, transforms, synthetic complexes.

The paper's METADOCK environment operates on a receptor-ligand pair with
per-atom partial charges, Lennard-Jones parameters and hydrogen-bond
roles.  This subpackage provides:

- :mod:`repro.chem.elements` -- element data and parameter tables;
- :mod:`repro.chem.molecule` -- the structure-of-arrays :class:`Molecule`;
- :mod:`repro.chem.topology` -- bond graphs and rotatable-bond detection;
- :mod:`repro.chem.transforms` -- rotation matrices and quaternions;
- :mod:`repro.chem.builders` -- deterministic synthetic 2BSM-scale
  complexes (the substitution for the wwPDB crystal structure);
- :mod:`repro.chem.descriptors` -- physicochemical descriptors for
  ligand libraries.
"""

from repro.chem.elements import Element, ELEMENTS
from repro.chem.molecule import Molecule
from repro.chem.topology import (
    rotatable_bonds,
)
from repro.chem.transforms import (
    Quaternion,
    axis_angle_matrix,
)
from repro.chem.builders import (
    build_complex,
    build_ligand,
    build_receptor,
    BuiltComplex,
)
from repro.chem.descriptors import (
    Descriptors,
    compute_descriptors,
)

__all__ = [
    "Element",
    "ELEMENTS",
    "Molecule",
    "rotatable_bonds",
    "Quaternion",
    "axis_angle_matrix",
    "build_complex",
    "build_ligand",
    "build_receptor",
    "BuiltComplex",
    "Descriptors",
    "compute_descriptors",
]
