"""Molecular descriptors for library characterization.

Virtual-screening pipelines filter and report compounds by cheap
physicochemical descriptors (the ZINC paper's "chemically diverse"
claim is made in these terms).  All descriptors here derive from the
information a :class:`~repro.chem.molecule.Molecule` carries -- no
external cheminformatics toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.molecule import Molecule
from repro.chem.topology import rotatable_bonds


@dataclass(frozen=True)
class Descriptors:
    """Lipinski-flavoured descriptor vector."""

    n_atoms: int
    n_heavy_atoms: int
    molecular_weight: float
    net_charge: float
    n_rotatable_bonds: int
    n_hbond_donors: int
    n_hbond_acceptors: int
    radius_of_gyration: float
    max_extent: float

    def as_vector(self) -> np.ndarray:
        """Numeric descriptor vector (for similarity/diversity math)."""
        return np.array(
            [
                self.n_atoms,
                self.n_heavy_atoms,
                self.molecular_weight,
                self.net_charge,
                self.n_rotatable_bonds,
                self.n_hbond_donors,
                self.n_hbond_acceptors,
                self.radius_of_gyration,
                self.max_extent,
            ]
        )


def compute_descriptors(mol: Molecule) -> Descriptors:
    """Descriptor vector of one molecule."""
    heavy = [s != "H" for s in mol.symbols]
    rb = rotatable_bonds(mol.symbols, mol.coords, mol.bonds)
    centered = mol.coords - mol.centroid()
    extent = (
        float(np.linalg.norm(centered, axis=1).max()) if mol.n_atoms else 0.0
    )
    return Descriptors(
        n_atoms=mol.n_atoms,
        n_heavy_atoms=int(sum(heavy)),
        molecular_weight=float(mol.masses.sum()),
        net_charge=float(mol.charges.sum()),
        n_rotatable_bonds=len(rb),
        n_hbond_donors=int(mol.hbond_donor.sum()),
        n_hbond_acceptors=int(mol.hbond_acceptor.sum()),
        radius_of_gyration=mol.radius_of_gyration(),
        max_extent=extent,
    )


#: Pocket-frame global block: ligand COM offset from the pocket center
#: (3), its norm (1), and the ligand-receptor COM distance (1).
N_POCKET_GLOBALS = 5

#: Length of :meth:`Descriptors.as_vector`.
N_MOLECULE_DESCRIPTORS = 9


def pocket_feature_dim(n_atoms: int, n_bonds: int) -> int:
    """Length of the pocket-relative feature vector for one ligand.

    Pocket-frame atom coordinates (3 per atom) + bond vectors (3 per
    bond) + the global block + the molecular-descriptor vector.  At the
    paper's 2BSM scale (45 atoms, 44 bonds) this is 281 -- a ~60x
    reduction of the 16,599-dim raw state.
    """
    return (
        3 * int(n_atoms)
        + 3 * int(n_bonds)
        + N_POCKET_GLOBALS
        + N_MOLECULE_DESCRIPTORS
    )


def encode_pocket_features(
    coords: np.ndarray,
    bonds: np.ndarray,
    masses: np.ndarray,
    total_mass: float,
    pocket_center: np.ndarray,
    receptor_com: np.ndarray,
    *,
    out: np.ndarray,
) -> np.ndarray:
    """Write one pose's pocket-relative features into ``out``.

    The dynamic prefix of the ``descriptor`` observation mode (see
    :mod:`repro.env.observation`): atom coordinates relative to the
    pocket center, bond vectors, then the global block.  The trailing
    :data:`N_MOLECULE_DESCRIPTORS` entries of ``out`` (the constant
    per-ligand descriptor vector) are left untouched -- the caller
    fills them once.
    """
    from repro.chem.topology import bond_vector_state

    m = coords.shape[0]
    n = 3 * m
    out[:n] = (coords - pocket_center).reshape(-1)
    bv = bond_vector_state(coords, bonds)
    k = n + bv.size
    out[n:k] = bv
    com = masses @ coords / total_mass
    offset = com - pocket_center
    out[k : k + 3] = offset
    out[k + 3] = np.sqrt(offset @ offset)
    d = com - receptor_com
    out[k + 4] = np.sqrt(d @ d)
    return out
