"""The composite METADOCK score (paper Equation 1).

Sign convention
---------------
Equation 1 sums interaction *energies* (kcal/mol; lower = better).  The
paper's narrative, however, describes a *score* that "goes from big
negative numbers (e.g. -4.5e+21) to 500 at most" and "drops sharply" on
electrostatic or steric clashes -- exactly the **negated** energy.  We
therefore expose both: :func:`interaction_energy` (physics sign) and
:func:`interaction_score` ``= -energy`` (the scalar METADOCK reports and
the RL reward derives from).  With distances clamped at ``MIN_DISTANCE =
0.05 A``, a fully overlapping atom pair contributes ``~(3.4/0.05)^12 ~
1e22`` -- reproducing the paper's quoted magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.molecule import Molecule
from repro.scoring import electrostatics as elec
from repro.scoring import hbond as hb
from repro.scoring import lennard_jones as lj
from repro.scoring.pairwise import direction_vectors, pairwise_distances


def as_pose(coords: np.ndarray, n_atoms: int) -> np.ndarray:
    """Validate one pose into float64 ``(n_atoms, 3)``.

    The shared front door of every scorer's ``score``: a wrong-size
    pose raises the same ``ValueError`` whichever scorer receives it.
    """
    lig = np.asarray(coords, dtype=float)
    if lig.shape != (n_atoms, 3):
        raise ValueError(f"coords must have shape ({n_atoms}, 3)")
    return lig


def as_pose_batch(coords_batch: np.ndarray, n_atoms: int) -> np.ndarray:
    """Validate a many-pose array into float64 ``(k, n_atoms, 3)``.

    The shared front door of every scorer's ``score_batch``: one
    place for the shape/dtype contract, so empty batches (``k == 0``)
    can short-circuit *before* any lazy structure (field maps, scoring
    tables) is built.
    """
    cb = np.asarray(coords_batch, dtype=float)
    if cb.ndim != 3 or cb.shape[1:] != (n_atoms, 3):
        raise ValueError(
            f"coords_batch must have shape (k, {n_atoms}, 3)"
        )
    return cb


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-term energies (kcal/mol, physics sign) and the final score."""

    electrostatic: float
    lennard_jones: float
    hydrogen_bond: float

    @property
    def energy(self) -> float:
        """Total interaction energy (lower = better)."""
        return self.electrostatic + self.lennard_jones + self.hydrogen_bond

    @property
    def score(self) -> float:
        """METADOCK score (higher = better): negated energy."""
        return -self.energy


@dataclass(frozen=True)
class ScoringTables:
    """Static-topology scoring tables for one (receptor, ligand) pair.

    Everything here depends only on topology — charges, LJ types, H-bond
    roles, receptor geometry — never on the ligand pose, so callers that
    score many poses (``ExactScorer``, the pose-batch path) build the
    tables once and pass them back in.  Results are **bit-identical** to
    the rebuild-every-call path: the cached arrays are the same floats
    the per-call code would recompute.
    """

    mask: np.ndarray  # (n, m) H-bond eligibility
    rows: np.ndarray  # (n,) receptor rows with any eligible pair
    rows_any: bool
    sig_full: np.ndarray  # (n, m) combined LJ sigma
    eps_full: np.ndarray  # (n, m) combined LJ epsilon
    # H-bond row-restricted views (empty when rows_any is False):
    rec_sub: np.ndarray  # (n_hb, 3) receptor coords on eligible rows
    dirs_sub: np.ndarray  # (n_hb, 3) donor directions on eligible rows
    mask_sub: np.ndarray  # (n_hb, m)
    sig_sub: np.ndarray  # (n_hb, m)
    eps_sub: np.ndarray  # (n_hb, m)

    @staticmethod
    def build(receptor: Molecule, ligand: Molecule) -> "ScoringTables":
        mask = hb.eligible_pairs_mask(
            receptor.hbond_donor,
            receptor.hbond_acceptor,
            ligand.hbond_donor,
            ligand.hbond_acceptor,
        )
        rows = mask.any(axis=1)
        rows_any = bool(rows.any())
        sig_full, eps_full = lj.combine_lj(
            receptor.sigma, receptor.epsilon, ligand.sigma, ligand.epsilon
        )
        if rows_any:
            dirs_sub = direction_vectors(receptor.coords, receptor.bonds)[
                rows
            ]
            sig_sub, eps_sub = lj.combine_lj(
                receptor.sigma[rows],
                receptor.epsilon[rows],
                ligand.sigma,
                ligand.epsilon,
            )
            rec_sub = receptor.coords[rows]
            mask_sub = mask[rows]
        else:
            rec_sub = np.empty((0, 3))
            dirs_sub = np.empty((0, 3))
            mask_sub = np.empty((0, ligand.n_atoms), dtype=bool)
            sig_sub = np.empty((0, ligand.n_atoms))
            eps_sub = np.empty((0, ligand.n_atoms))
        return ScoringTables(
            mask=mask,
            rows=rows,
            rows_any=rows_any,
            sig_full=sig_full,
            eps_full=eps_full,
            rec_sub=rec_sub,
            dirs_sub=dirs_sub,
            mask_sub=mask_sub,
            sig_sub=sig_sub,
            eps_sub=eps_sub,
        )


def interaction_breakdown(
    receptor: Molecule,
    ligand: Molecule,
    *,
    distance_dependent_dielectric: bool = False,
    tables: ScoringTables | None = None,
) -> ScoreBreakdown:
    """Full Eq. 1 evaluation with per-term breakdown.

    The H-bond angular directions are taken from the *receptor* side
    topology (donor directions), matching the matrix layout receptor x
    ligand; ligand-side donors are handled by the eligibility mask, which
    is symmetric in donor/acceptor roles.

    ``tables`` optionally supplies the static-topology arrays
    (:meth:`ScoringTables.build`); omitted, they are rebuilt for this
    call with identical results.
    """
    t = tables if tables is not None else ScoringTables.build(
        receptor, ligand
    )
    d = pairwise_distances(receptor.coords, ligand.coords)
    e_el = elec.electrostatic_energy(
        receptor.charges,
        ligand.charges,
        d,
        distance_dependent=distance_dependent_dielectric,
    )
    e_lj = lj.lennard_jones_energy_pre(t.sig_full, t.eps_full, d)
    if t.rows_any:
        # Only a small fraction of receptor atoms are donors/acceptors;
        # restricting the angular computation to their rows cuts the
        # H-bond cost by that fraction with identical results.
        cos_t, sin_t = hb.hbond_angle_factors(
            t.rec_sub, ligand.coords, t.dirs_sub
        )
        e_hb = hb.hbond_energy(
            d[t.rows], t.mask_sub, cos_t, sin_t, t.sig_sub, t.eps_sub
        )
    else:
        e_hb = 0.0
    return ScoreBreakdown(
        electrostatic=e_el, lennard_jones=e_lj, hydrogen_bond=e_hb
    )


def interaction_energy(receptor: Molecule, ligand: Molecule, **kw) -> float:
    """Total Eq. 1 energy (kcal/mol; lower = better)."""
    return interaction_breakdown(receptor, ligand, **kw).energy


def interaction_score(receptor: Molecule, ligand: Molecule, **kw) -> float:
    """The METADOCK score: negated Eq. 1 energy (higher = better)."""
    return interaction_breakdown(receptor, ligand, **kw).score


def score_pose_batch(
    receptor: Molecule,
    ligand: Molecule,
    coords_batch: np.ndarray,
    *,
    include_hbond: bool = True,
    chunk: int = 16,
    tables: ScoringTables | None = None,
) -> np.ndarray:
    """Scores for ``k`` ligand coordinate sets against one receptor.

    ``coords_batch`` has shape (k, m, 3); returns shape (k,) scores
    (higher = better).  The static-topology tables are built (or taken
    from ``tables``) once and each pose then runs through exactly the
    single-pose kernels — the same per-pose GEMM distance matrix and
    term reductions :func:`interaction_breakdown` uses — so every entry
    is **bitwise-equal** to ``interaction_score(receptor,
    ligand.with_coords(coords_batch[i]))`` while the per-call table
    construction (the dominant fixed cost of a singles loop) is
    amortized across the batch.  ``chunk`` is retained for API
    compatibility; evaluation is per pose.
    """
    del chunk  # bitwise-per-pose evaluation needs no chunked temporaries
    cb = as_pose_batch(coords_batch, ligand.n_atoms)
    k = cb.shape[0]
    out = np.empty(k)
    if k == 0:
        # Empty batch: short-circuit before building scoring tables.
        return out
    t = tables if tables is not None else ScoringTables.build(
        receptor, ligand
    )
    use_hb = include_hbond and t.rows_any
    for i in range(k):
        d = pairwise_distances(receptor.coords, cb[i])
        e = elec.electrostatic_energy(receptor.charges, ligand.charges, d)
        e += lj.lennard_jones_energy_pre(t.sig_full, t.eps_full, d)
        if use_hb:
            cos_t, sin_t = hb.hbond_angle_factors(
                t.rec_sub, cb[i], t.dirs_sub
            )
            e += hb.hbond_energy(
                d[t.rows], t.mask_sub, cos_t, sin_t, t.sig_sub, t.eps_sub
            )
        out[i] = -e
    return out
