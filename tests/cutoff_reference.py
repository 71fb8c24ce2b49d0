"""Independently written cutoff scorer: the drift reference.

The registry's "cutoff" and "incremental" methods both run
:class:`repro.scoring.incremental.IncrementalScorer`.  This module keeps
a second, plainly written evaluation of the same truncated Eq. 1 -- its
own pair query, its own per-pair formulas, no gather tables and no
cache -- so ``DRIFT_REL_BOUND`` is pinned against code that does not
share the scorer's arithmetic.  It is the stand-alone cutoff scorer the
package shipped before "cutoff" became the Verlet scorer at skin 0.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, DEFAULT_CUTOFF, MIN_DISTANCE
from repro.scoring import hbond as hb
from repro.scoring.composite import as_pose
from repro.scoring.neighborlist import CellList, candidate_pairs
from repro.scoring.pairwise import direction_vectors


def query_pairs(
    cell_list: CellList, probe_points: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """All (stored_index, probe_index) pairs within ``radius``.

    :func:`~repro.scoring.neighborlist.candidate_pairs`' superset
    filtered with exact arithmetic (stored minus probe, squared norm,
    ``<= radius**2``), so membership does not depend on how the
    candidates were found.  Pairs keep the canonical probe-major order.

    Raises ``ValueError`` on a non-finite probe.
    """
    cand, probe_of = candidate_pairs(cell_list, probe_points, radius)
    probes = np.asarray(probe_points, dtype=float).reshape(-1, 3)
    r = float(radius)
    diff = np.take(cell_list.points, cand, axis=0)
    diff -= np.take(probes, probe_of, axis=0)
    keep = np.einsum("ij,ij->i", diff, diff) <= r * r
    return np.compress(keep, cand), np.compress(keep, probe_of)


class CutoffReference:
    """Eq. 1 truncated to receptor atoms within ``cutoff`` of any ligand atom.

    ``shifted=True`` (default) uses the energy-shifted Coulomb form
    ``k q_i q_j (1/r - 1/Rc)``, which is continuous at the cutoff.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        cutoff: float = DEFAULT_CUTOFF,
        *,
        shifted: bool = True,
    ):
        self.receptor = receptor
        self.ligand = ligand
        self.cutoff = float(cutoff)
        self.shifted = bool(shifted)
        self._cells = CellList(receptor.coords, cell_size=cutoff / 2.0)
        self._dirs = direction_vectors(receptor.coords, receptor.bonds)
        self._mask_full = hb.eligible_pairs_mask(
            receptor.hbond_donor,
            receptor.hbond_acceptor,
            ligand.hbond_donor,
            ligand.hbond_acceptor,
        )

    def score(self, coords: np.ndarray) -> float:
        lig = as_pose(coords, self.ligand.n_atoms)
        if not np.isfinite(lig).all():
            return float("nan")
        rec = self.receptor
        lig_mol = self.ligand
        rec_idx, lig_idx = query_pairs(self._cells, lig, self.cutoff)
        if rec_idx.size == 0:
            return 0.0
        diff = lig[lig_idx] - rec.coords[rec_idx]
        r = np.sqrt((diff**2).sum(axis=1))
        np.maximum(r, MIN_DISTANCE, out=r)
        # Electrostatics (optionally energy-shifted at the cutoff).
        qq = rec.charges[rec_idx] * lig_mol.charges[lig_idx]
        inv = 1.0 / r
        if self.shifted:
            inv = inv - 1.0 / self.cutoff
        e_el = COULOMB_CONSTANT * qq * inv
        # Lennard-Jones.
        sigma = 0.5 * (rec.sigma[rec_idx] + lig_mol.sigma[lig_idx])
        eps = np.sqrt(rec.epsilon[rec_idx] * lig_mol.epsilon[lig_idx])
        x6 = (sigma / r) ** 6
        e_lj = 4.0 * eps * (x6 * x6 - x6)
        energy = float(e_el.sum()) + float(e_lj.sum())
        # Hydrogen-bond correction on eligible pairs.
        eligible = self._mask_full[rec_idx, lig_idx]
        if eligible.any():
            r_el = r[eligible]
            u_el = diff[eligible]
            dirs_el = self._dirs[rec_idx[eligible]]
            norm = np.maximum(np.linalg.norm(u_el, axis=1), 1e-9)
            cos = (dirs_el * u_el).sum(axis=1) / norm
            iso = (np.abs(dirs_el) < 1e-12).all(axis=1)
            cos[iso] = 1.0
            np.clip(cos, 0.0, 1.0, out=cos)
            sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
            c_hb, d_hb = hb.hbond_coefficients()
            e_1210 = c_hb / r_el**12 - d_hb / r_el**10
            energy += float(
                (cos * e_1210 - (1.0 - sin) * e_lj[eligible]).sum()
            )
        return -energy
