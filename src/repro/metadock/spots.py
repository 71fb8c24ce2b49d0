"""Receptor surface-spot decomposition.

BINDSURF/METADOCK divide the whole protein surface into independent
regions ("spots") so pose search can run blind (no prior pocket knowledge)
and embarrassingly parallel -- one optimization per spot.  We reproduce
that: surface atoms are extracted by radial shell, their directions are
clustered with farthest-point sampling, and each cluster becomes a
:class:`Spot` (anchor point + radius) used to seed pose populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.molecule import Molecule


@dataclass(frozen=True)
class Spot:
    """A surface region: anchor point just outside the surface + extent."""

    center: np.ndarray
    radius: float
    #: Indices of receptor surface atoms assigned to this spot.
    atom_indices: np.ndarray

    @property
    def n_atoms(self) -> int:
        """Number of surface atoms in the spot."""
        return int(self.atom_indices.size)


def surface_atoms(receptor: Molecule, shell: float = 2.5) -> np.ndarray:
    """Indices of atoms within ``shell`` of the outer radial surface.

    For globular receptors (ours and most proteins) the radial criterion
    is a good surface proxy; a solvent-accessible-surface computation
    would be overkill for pose seeding.
    """
    center = receptor.centroid()
    r = np.linalg.norm(receptor.coords - center, axis=1)
    return np.nonzero(r >= r.max() - shell)[0]


def surface_spots(
    receptor: Molecule,
    n_spots: int = 16,
    *,
    shell: float = 2.5,
    standoff: float = 3.0,
) -> list[Spot]:
    """Decompose the receptor surface into ``n_spots`` regions.

    Farthest-point sampling on the surface-atom directions picks well-
    spread spot centers; every surface atom joins its nearest center.
    Spot anchors stand ``standoff`` angstroms outside the local surface so
    a ligand seeded there starts clash-free.
    """
    if n_spots < 1:
        raise ValueError("n_spots must be >= 1")
    center = receptor.centroid()
    surf_idx = surface_atoms(receptor, shell)
    pts = receptor.coords[surf_idx]
    dirs = pts - center
    radii = np.linalg.norm(dirs, axis=1)
    dirs = dirs / np.maximum(radii, 1e-12)[:, None]

    n_spots = min(n_spots, len(surf_idx))
    # Farthest-point sampling (deterministic: start from the first atom).
    chosen = [0]
    min_d = np.linalg.norm(dirs - dirs[0], axis=1)
    for _ in range(1, n_spots):
        nxt = int(np.argmax(min_d))
        chosen.append(nxt)
        min_d = np.minimum(min_d, np.linalg.norm(dirs - dirs[nxt], axis=1))

    centers_dir = dirs[chosen]
    # Assign each surface atom to the nearest chosen direction.
    assign = np.argmin(
        np.linalg.norm(dirs[:, None, :] - centers_dir[None, :, :], axis=2),
        axis=1,
    )
    spots: list[Spot] = []
    for k in range(n_spots):
        members = np.nonzero(assign == k)[0]
        if members.size == 0:
            continue
        local_r = radii[members].mean()
        anchor = center + centers_dir[k] * (local_r + standoff)
        spread = (
            np.linalg.norm(pts[members] - pts[members].mean(axis=0), axis=1).max()
            if members.size > 1
            else 2.0
        )
        spots.append(
            Spot(
                center=anchor,
                radius=float(max(spread, 2.0)),
                atom_indices=surf_idx[members],
            )
        )
    return spots
