"""Geometric and chemical sanity checks for molecules and complexes.

The builders promise specific invariants (no overlapping atoms, a concave
pocket, complementary chemistry); these validators make the promises
checkable.  ``tests/test_chem_builders.py`` runs them over generated
complexes; ``tests/test_chem_validate.py`` checks them on hand-built
molecules.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.chem.builders import BuiltComplex, _in_pocket
from repro.chem.molecule import Molecule
from repro.chem.topology import adjacency


@dataclass
class ValidationReport:
    """Accumulated validation findings; falsy when everything passed."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no errors were recorded."""
        return not self.errors

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_failed(self) -> None:
        """Raise ``ValueError`` summarizing errors, if any."""
        if self.errors:
            raise ValueError("; ".join(self.errors))


def validate_molecule(
    mol: Molecule, *, min_separation: float = 0.7
) -> ValidationReport:
    """Check array consistency, finite coordinates and atom separation."""
    rep = ValidationReport()
    if not np.isfinite(mol.coords).all():
        rep.errors.append("non-finite coordinates")
    if not np.isfinite(mol.charges).all():
        rep.errors.append("non-finite charges")
    if (mol.sigma <= 0).any():
        rep.errors.append("non-positive LJ sigma")
    if (mol.epsilon < 0).any():
        rep.errors.append("negative LJ epsilon")
    if mol.n_atoms >= 2:
        # Nearest-neighbor distance via a coarse check (exact pairwise is
        # O(n^2) memory; chunk to stay cache-friendly for big receptors).
        min_d = np.inf
        chunk = 512
        for a in range(0, mol.n_atoms, chunk):
            block = mol.coords[a : a + chunk]
            d = np.sqrt(
                ((block[:, None, :] - mol.coords[None, :, :]) ** 2).sum(-1)
            )
            sub = d[d > 0]
            if sub.size:
                min_d = min(min_d, float(sub.min()))
        if min_d < min_separation:
            rep.warnings.append(
                f"atoms closer than {min_separation} A (min {min_d:.3f})"
            )
    if mol.n_bonds:
        lengths = np.linalg.norm(
            mol.coords[mol.bonds[:, 1]] - mol.coords[mol.bonds[:, 0]], axis=1
        )
        if (lengths > 3.0).any():
            rep.warnings.append("suspiciously long bonds (> 3 A)")
        if (lengths < 0.6).any():
            rep.errors.append("bonds shorter than 0.6 A")
    return rep


def validate_complex(built: BuiltComplex) -> ValidationReport:
    """Check the built complex honours the builder contract.

    - exact atom counts;
    - crystal ligand sits inside the pocket cone, initial ligand outside
      the receptor;
    - pocket lining is net negative while the ligand is net positive
      (complementarity);
    - initial pose is farther from the pocket center than the crystal one.
    """
    rep = ValidationReport()
    cfg = built.config
    if built.receptor.n_atoms != cfg.receptor_atoms:
        rep.errors.append(
            f"receptor has {built.receptor.n_atoms} atoms, "
            f"expected {cfg.receptor_atoms}"
        )
    if built.ligand_crystal.n_atoms != cfg.ligand_atoms:
        rep.errors.append(
            f"ligand has {built.ligand_crystal.n_atoms} atoms, "
            f"expected {cfg.ligand_atoms}"
        )
    crystal_c = built.ligand_crystal.centroid()
    if not _in_pocket(crystal_c[None, :], cfg)[0] and np.linalg.norm(
        crystal_c
    ) < cfg.receptor_radius + 3.0:
        # Allow the relaxed crystal pose to sit at/just outside the mouth.
        rep.warnings.append("crystal ligand centroid not inside pocket cone")
    initial_d = np.linalg.norm(built.ligand_initial.centroid())
    if initial_d <= cfg.receptor_radius:
        rep.errors.append("initial ligand pose is inside the receptor")
    if built.ligand_crystal.charges.sum() <= 0:
        rep.errors.append("ligand is not net positive")
    crystal_d = np.linalg.norm(crystal_c)
    if crystal_d >= initial_d:
        rep.errors.append("crystal pose is not closer than the initial pose")
    return rep


def connected_components(n_atoms: int, bonds: np.ndarray) -> list[list[int]]:
    """Connected components of the bond graph (BFS), sorted by first atom."""
    adj = adjacency(n_atoms, bonds)
    seen = np.zeros(n_atoms, dtype=bool)
    comps: list[list[int]] = []
    for start in range(n_atoms):
        if seen[start]:
            continue
        comp = []
        q = deque([start])
        seen[start] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
        comps.append(sorted(comp))
    return comps
