"""Frozen copy of the PR-20 full-pair Eq. 1 evaluation (test-only).

The term-by-term composition ``repro.scoring.composite`` ran before
the workspace kernel replaced it: ``pairwise_distances`` +
``electrostatic_energy`` + ``lennard_jones_energy_pre`` +
``hbond_angle_factors`` + ``hbond_energy``, copied verbatim, fresh
temporaries and all.  It exists for two readers and must not be
"optimized":

- ``tests/test_scoring_exact_kernel.py`` pins the live kernel to it
  with ``==`` (every clamp, mask and reduction order is a bit of the
  oracle every digest hangs off);
- ``benchmarks/test_bench_score_step.py`` anchors its speed floors on
  this kernel's rate, so a faster exact scorer cannot loosen them.

Only the static-topology builders (``combine_lj``,
``eligible_pairs_mask``, ``direction_vectors``) are imported from
``src`` -- they are not part of the per-pose arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, DIELECTRIC, MIN_DISTANCE
from repro.scoring.hbond import (
    HBOND_DEPTH,
    HBOND_R0,
    eligible_pairs_mask,
    hbond_coefficients,
)
from repro.scoring.lennard_jones import combine_lj
from repro.scoring.pairwise import direction_vectors


def pairwise_distances(a, b, min_distance=MIN_DISTANCE):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    a2 = (a * a).sum(axis=1)[:, None]
    b2 = (b * b).sum(axis=1)[None, :]
    d2 = a2 + b2 - 2.0 * (a @ b.T)
    np.maximum(d2, min_distance * min_distance, out=d2)
    return np.sqrt(d2, out=d2)


def electrostatic_energy(
    charges_a, charges_b, distances, *, dielectric=DIELECTRIC,
    distance_dependent=False,
):
    qa = np.asarray(charges_a, dtype=float)
    qb = np.asarray(charges_b, dtype=float)
    d = np.asarray(distances, dtype=float)
    denom = d * d if distance_dependent else d
    inv = 1.0 / denom
    total = qa @ inv @ qb
    return float(COULOMB_CONSTANT / dielectric * total)


def lennard_jones_energy_pre(sigma_pair, eps_pair, distances):
    x = sigma_pair / distances
    x6 = x * x * x
    x6 *= x6
    return float((4.0 * eps_pair * (x6 * x6 - x6)).sum())


def hbond_angle_factors(coords_a, coords_b, dir_a, *, min_distance=1e-9):
    pa = np.asarray(coords_a, dtype=float)
    pb = np.asarray(coords_b, dtype=float)
    diff = pb[None, :, :] - pa[:, None, :]
    norm = np.linalg.norm(diff, axis=2)
    norm = np.maximum(norm, min_distance)
    unit = diff / norm[:, :, None]
    cos = np.einsum("nd,nmd->nm", np.asarray(dir_a, dtype=float), unit)
    isotropic = (np.abs(dir_a) < 1e-12).all(axis=1)
    cos[isotropic, :] = 1.0
    np.clip(cos, 0.0, 1.0, out=cos)
    sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
    return cos, sin


def hbond_energy(
    distances, mask, cos_theta, sin_theta, sigma_pair, eps_pair,
    *, r0=HBOND_R0, depth=HBOND_DEPTH,
):
    d = np.asarray(distances, dtype=float)
    c_coef, d_coef = hbond_coefficients(r0, depth)
    inv = 1.0 / d
    inv2 = inv * inv
    inv10 = inv2**5
    inv12 = inv10 * inv2
    e_1210 = c_coef * inv12 - d_coef * inv10
    x = sigma_pair * inv
    x6 = x * x * x
    x6 *= x6
    e_lj = 4.0 * eps_pair * (x6 * x6 - x6)
    corr = cos_theta * e_1210 - (1.0 - sin_theta) * e_lj
    return float(np.where(mask, corr, 0.0).sum())


class FrozenExactScorer:
    """PR-20 ``ExactScorer`` / ``FieldScorer._exact_energy``, verbatim.

    Tables are built once from the molecules as they are at
    construction; distances read ``receptor.coords`` live, as PR 20 did.
    """

    def __init__(self, receptor: Molecule, ligand: Molecule):
        self.receptor = receptor
        self.ligand = ligand
        mask = eligible_pairs_mask(
            receptor.hbond_donor,
            receptor.hbond_acceptor,
            ligand.hbond_donor,
            ligand.hbond_acceptor,
        )
        self.rows = mask.any(axis=1)
        self.rows_any = bool(self.rows.any())
        self.sig_full, self.eps_full = combine_lj(
            receptor.sigma, receptor.epsilon, ligand.sigma, ligand.epsilon
        )
        if self.rows_any:
            rows = self.rows
            self.dirs_sub = direction_vectors(
                receptor.coords, receptor.bonds
            )[rows]
            self.sig_sub, self.eps_sub = combine_lj(
                receptor.sigma[rows],
                receptor.epsilon[rows],
                ligand.sigma,
                ligand.epsilon,
            )
            self.rec_sub = receptor.coords[rows]
            self.mask_sub = mask[rows]

    def terms(
        self, coords, *, distance_dependent_dielectric: bool = False
    ) -> tuple[float, float, float]:
        """``interaction_breakdown``: (electrostatic, LJ, H-bond)."""
        rec = self.receptor
        lig = np.asarray(coords, dtype=float)
        d = pairwise_distances(rec.coords, lig)
        e_el = electrostatic_energy(
            rec.charges,
            self.ligand.charges,
            d,
            distance_dependent=distance_dependent_dielectric,
        )
        e_lj = lennard_jones_energy_pre(self.sig_full, self.eps_full, d)
        if self.rows_any:
            cos_t, sin_t = hbond_angle_factors(
                self.rec_sub, lig, self.dirs_sub
            )
            e_hb = hbond_energy(
                d[self.rows], self.mask_sub, cos_t, sin_t,
                self.sig_sub, self.eps_sub,
            )
        else:
            e_hb = 0.0
        return e_el, e_lj, e_hb

    def score(self, coords) -> float:
        e_el, e_lj, e_hb = self.terms(coords)
        return -(e_el + e_lj + e_hb)

    def column_energy(self, lig: np.ndarray, ex: np.ndarray) -> float:
        """``FieldScorer._exact_energy``: Eq. 1 over ligand columns ``ex``."""
        rec = self.receptor
        d = pairwise_distances(rec.coords, lig[ex])
        e = electrostatic_energy(rec.charges, self.ligand.charges[ex], d)
        e += lennard_jones_energy_pre(
            self.sig_full[:, ex], self.eps_full[:, ex], d
        )
        if self.rows_any:
            cos_t, sin_t = hbond_angle_factors(
                self.rec_sub, lig[ex], self.dirs_sub
            )
            e += hbond_energy(
                d[self.rows],
                self.mask_sub[:, ex],
                cos_t,
                sin_t,
                self.sig_sub[:, ex],
                self.eps_sub[:, ex],
            )
        return e
