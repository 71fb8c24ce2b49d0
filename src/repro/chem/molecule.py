"""Structure-of-arrays molecule representation.

Scoring dominates the run time of docking, so atom data lives in parallel
NumPy arrays (coordinates, charges, LJ parameters, H-bond flags) rather
than per-atom objects -- the guides' "vectorize, avoid copies" idiom.
Coordinates are C-contiguous ``(n, 3)`` float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.chem import elements as el


@dataclass
class Molecule:
    """A molecule as parallel arrays plus a bond list.

    Attributes
    ----------
    symbols:
        Element symbols, length ``n``.
    coords:
        ``(n, 3)`` float64 positions in angstrom.
    charges:
        Partial charges in elementary charge units.
    sigma / epsilon:
        Per-atom Lennard-Jones parameters.
    hbond_donor / hbond_acceptor:
        Boolean masks for the hydrogen-bond term.
    bonds:
        ``(m, 2)`` int array of atom-index pairs (i < j).
    name:
        Free-form label ("receptor", "ligand", PDB id, ...).
    """

    symbols: list[str]
    coords: np.ndarray
    charges: np.ndarray
    sigma: np.ndarray
    epsilon: np.ndarray
    hbond_donor: np.ndarray
    hbond_acceptor: np.ndarray
    bonds: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    name: str = ""
    #: Lazily computed per-atom masses (see :attr:`masses`); once looked
    #: up they are shared by :meth:`with_coords` copies (same symbols).
    _masses: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.symbols)
        self.coords = np.ascontiguousarray(self.coords, dtype=float)
        if self.coords.shape != (n, 3):
            raise ValueError(
                f"coords shape {self.coords.shape} != ({n}, 3)"
            )
        for attr in ("charges", "sigma", "epsilon"):
            arr = np.ascontiguousarray(getattr(self, attr), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{attr} must have shape ({n},)")
            setattr(self, attr, arr)
        for attr in ("hbond_donor", "hbond_acceptor"):
            arr = np.ascontiguousarray(getattr(self, attr), dtype=bool)
            if arr.shape != (n,):
                raise ValueError(f"{attr} must have shape ({n},)")
            setattr(self, attr, arr)
        self.bonds = np.ascontiguousarray(self.bonds, dtype=np.int64)
        if self.bonds.size and (
            self.bonds.ndim != 2 or self.bonds.shape[1] != 2
        ):
            raise ValueError("bonds must have shape (m, 2)")
        if self.bonds.size:
            if self.bonds.min() < 0 or self.bonds.max() >= n:
                raise ValueError("bond indices out of range")
            if (self.bonds[:, 0] == self.bonds[:, 1]).any():
                raise ValueError("self-bonds are not allowed")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_symbols(
        cls,
        symbols: Sequence[str],
        coords,
        charges=None,
        bonds=None,
        name: str = "",
    ) -> "Molecule":
        """Build a molecule, pulling LJ/H-bond data from the element table.

        When ``charges`` is omitted, each atom receives its element's
        typical partial charge (a crude Gasteiger substitute adequate for
        synthetic systems).
        """
        syms = [str(s).strip().upper() for s in symbols]
        elems = [el.element(s) for s in syms]
        n = len(syms)
        coords = np.ascontiguousarray(coords, dtype=float).reshape(n, 3)
        if charges is None:
            charges = np.array([e.typical_charge for e in elems])
        sigma = np.array([e.sigma for e in elems])
        eps = np.array([e.epsilon for e in elems])
        donor = np.array([e.hbond_donor for e in elems])
        acceptor = np.array([e.hbond_acceptor for e in elems])
        if bonds is None:
            bonds = np.empty((0, 2), dtype=np.int64)
        return cls(
            symbols=syms,
            coords=coords,
            charges=np.asarray(charges, dtype=float),
            sigma=sigma,
            epsilon=eps,
            hbond_donor=donor,
            hbond_acceptor=acceptor,
            bonds=np.asarray(bonds, dtype=np.int64).reshape(-1, 2),
            name=name,
        )

    # -- geometry -----------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        """Number of atoms."""
        return len(self.symbols)

    @property
    def n_bonds(self) -> int:
        """Number of bonds."""
        return int(self.bonds.shape[0])

    @property
    def masses(self) -> np.ndarray:
        """Per-atom masses (amu), looked up once and kept read-only."""
        if self._masses is None:
            m = el.masses(self.symbols)
            m.flags.writeable = False
            self._masses = m
        return self._masses

    def center_of_mass(self) -> np.ndarray:
        """Mass-weighted centroid."""
        m = self.masses
        return (self.coords * m[:, None]).sum(axis=0) / m.sum()

    def centroid(self) -> np.ndarray:
        """Unweighted centroid."""
        return self.coords.mean(axis=0)

    def radius_of_gyration(self) -> float:
        """Mass-weighted radius of gyration."""
        m = self.masses
        com = self.center_of_mass()
        return float(
            np.sqrt((m * ((self.coords - com) ** 2).sum(axis=1)).sum() / m.sum())
        )

    def bounding_radius(self) -> float:
        """Max distance from centroid to any atom."""
        c = self.centroid()
        return float(np.linalg.norm(self.coords - c, axis=1).max())

    # -- editing -------------------------------------------------------------
    def with_coords(self, coords: np.ndarray) -> "Molecule":
        """Copy sharing parameters but with new coordinates.

        Parameter arrays are shared (read-only by convention) so building
        per-pose molecules during screening does not copy charge/LJ data.
        """
        coords = np.ascontiguousarray(coords, dtype=float)
        if coords.shape != self.coords.shape:
            raise ValueError("coords shape mismatch")
        mol = Molecule(
            symbols=self.symbols,
            coords=coords,
            charges=self.charges,
            sigma=self.sigma,
            epsilon=self.epsilon,
            hbond_donor=self.hbond_donor,
            hbond_acceptor=self.hbond_acceptor,
            bonds=self.bonds,
            name=self.name,
        )
        mol._masses = self._masses
        return mol

    def translated(self, vec) -> "Molecule":
        """Copy translated by ``vec``."""
        return self.with_coords(self.coords + np.asarray(vec, dtype=float))

    @staticmethod
    def concatenate(mols: Sequence["Molecule"], name: str = "") -> "Molecule":
        """Join molecules into one (bond indices offset appropriately)."""
        if not mols:
            raise ValueError("cannot concatenate zero molecules")
        offset = 0
        bond_parts = []
        for m in mols:
            if m.n_bonds:
                bond_parts.append(m.bonds + offset)
            offset += m.n_atoms
        bonds = np.concatenate(bond_parts) if bond_parts \
            else np.empty((0, 2), dtype=np.int64)
        return Molecule(
            symbols=[s for m in mols for s in m.symbols],
            coords=np.concatenate([m.coords for m in mols]),
            charges=np.concatenate([m.charges for m in mols]),
            sigma=np.concatenate([m.sigma for m in mols]),
            epsilon=np.concatenate([m.epsilon for m in mols]),
            hbond_donor=np.concatenate([m.hbond_donor for m in mols]),
            hbond_acceptor=np.concatenate([m.hbond_acceptor for m in mols]),
            bonds=bonds,
            name=name,
        )

    def copy(self) -> "Molecule":
        """Deep copy (all arrays owned)."""
        return Molecule(
            symbols=list(self.symbols),
            coords=self.coords.copy(),
            charges=self.charges.copy(),
            sigma=self.sigma.copy(),
            epsilon=self.epsilon.copy(),
            hbond_donor=self.hbond_donor.copy(),
            hbond_acceptor=self.hbond_acceptor.copy(),
            bonds=self.bonds.copy(),
            name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"Molecule(name={self.name!r}, atoms={self.n_atoms}, "
            f"bonds={self.n_bonds})"
        )
