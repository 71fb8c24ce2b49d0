"""Sequential reference scorer -- the paper's Algorithm 1, generalized.

Algorithm 1 in the paper shows the sequential baseline for the
Lennard-Jones interactions: a triple loop over conformations, receptor
atoms, and ligand atoms accumulating ``4 eps (t12 - t6)``.  This module
implements that literal loop structure in pure Python for **all three**
Eq. 1 terms, serving two purposes:

1. *Parity oracle* -- ``tests/test_scoring_parity.py`` asserts the
   vectorized scorer matches this one to tight tolerance;
2. *Baseline* -- ``benchmarks/test_bench_scoring.py`` measures the
   speedup of the vectorized path over this loop, the Python analogue of
   the paper's sequential-vs-GPU comparison.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, MIN_DISTANCE
from repro.scoring.hbond import (
    HBOND_DEPTH,
    HBOND_R0,
    hbond_coefficients,
    isotropic,
)
from repro.scoring.pairwise import direction_vectors


def sequential_lj_energy(receptor: Molecule, ligand: Molecule) -> float:
    """Algorithm 1 verbatim (single conformation): sequential LJ loop."""
    total = 0.0
    for j in range(receptor.n_atoms):
        rx, ry, rz = receptor.coords[j]
        sj = receptor.sigma[j]
        ej = receptor.epsilon[j]
        for k in range(ligand.n_atoms):
            dx = rx - ligand.coords[k, 0]
            dy = ry - ligand.coords[k, 1]
            dz = rz - ligand.coords[k, 2]
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
            r = max(r, MIN_DISTANCE)
            sigma = 0.5 * (sj + ligand.sigma[k])
            eps = math.sqrt(ej * ligand.epsilon[k])
            term6 = (sigma / r) ** 6
            term12 = term6 * term6
            total += 4.0 * eps * (term12 - term6)
    return total


def sequential_score_algorithm1(
    receptor: Molecule,
    ligand: Molecule,
    conformations: Sequence[np.ndarray] | None = None,
) -> list[float]:
    """Algorithm 1 over ``N_CONFORMATION`` poses, full Eq. 1 energies.

    ``conformations`` is a sequence of ligand coordinate arrays; ``None``
    means the single current pose.  Returns the per-conformation *scores*
    (negated energies), mirroring ``S_energy[i]`` in the pseudocode.
    """
    if conformations is None:
        conformations = [ligand.coords]
    c_hb, d_hb = hbond_coefficients(HBOND_R0, HBOND_DEPTH)
    dirs = direction_vectors(receptor.coords, receptor.bonds)
    iso = isotropic(dirs)
    scores: list[float] = []
    for coords in conformations:
        coords = np.asarray(coords, dtype=float)
        scoring = 0.0
        for j in range(receptor.n_atoms):
            rxyz = receptor.coords[j]
            qj = receptor.charges[j]
            sj = receptor.sigma[j]
            ej = receptor.epsilon[j]
            dj = dirs[j]
            iso_j = bool(iso[j])
            donor_j = bool(receptor.hbond_donor[j])
            acc_j = bool(receptor.hbond_acceptor[j])
            for k in range(coords.shape[0]):
                dx = coords[k, 0] - rxyz[0]
                dy = coords[k, 1] - rxyz[1]
                dz = coords[k, 2] - rxyz[2]
                r = math.sqrt(dx * dx + dy * dy + dz * dz)
                r = max(r, MIN_DISTANCE)
                # electrostatics
                scoring += COULOMB_CONSTANT * qj * ligand.charges[k] / r
                # Lennard-Jones
                sigma = 0.5 * (sj + ligand.sigma[k])
                eps = math.sqrt(ej * ligand.epsilon[k])
                term6 = (sigma / r) ** 6
                term12 = term6 * term6
                e_lj = 4.0 * eps * (term12 - term6)
                scoring += e_lj
                # hydrogen bond correction on eligible pairs
                eligible = (donor_j and bool(ligand.hbond_acceptor[k])) or (
                    acc_j and bool(ligand.hbond_donor[k])
                )
                if eligible:
                    if iso_j:
                        cos_t = 1.0
                    else:
                        # direction receptor->ligand against donor direction
                        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
                        norm = max(norm, 1e-9)
                        cos_t = (
                            dj[0] * dx + dj[1] * dy + dj[2] * dz
                        ) / norm
                        cos_t = min(1.0, max(0.0, cos_t))
                    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
                    e_1210 = c_hb / r**12 - d_hb / r**10
                    scoring += cos_t * e_1210 - (1.0 - sin_t) * e_lj
        scores.append(-scoring)
    return scores
