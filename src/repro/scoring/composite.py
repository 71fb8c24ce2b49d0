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
from repro.constants import COULOMB_CONSTANT, DIELECTRIC, MIN_DISTANCE
from repro.scoring import hbond as hb
from repro.scoring import lennard_jones as lj
from repro.scoring.pairwise import direction_vectors


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
    """Pose-independent constants of one (receptor, ligand) pair.

    A **snapshot** taken at :meth:`build` -- receptor geometry (as ``2a``
    and ``|a|^2``, the forms the distance pass reads), charges, combined
    LJ parameters and the H-bond block (rows x columns with an eligible
    donor/acceptor pair: 849 x 5 of 3,264 x 45 on 2BSM).  The molecules
    are never read again, so every term sees the same receptor even if
    ``receptor.coords`` is written to later.
    """

    rec2: np.ndarray  # (n, 3) 2 * receptor coords
    rec_sq: np.ndarray  # (n, 1) |a|^2
    q_rec: np.ndarray  # (n,)
    q_lig: np.ndarray  # (m,)
    sig_full: np.ndarray  # (n, m) combined LJ sigma
    eps_full: np.ndarray  # (n, m) combined LJ epsilon
    eps4_full: np.ndarray  # (n, m) 4 * eps_full
    hb_rows: np.ndarray  # (n_hb,) receptor rows with any eligible pair
    col_slot: np.ndarray  # (m,) a column's position in the block, or -1
    rec_sub: np.ndarray  # (n_hb, 3) receptor coords on hb_rows
    dirs_sub: np.ndarray  # (n_hb, 3) donor directions on hb_rows
    mask_blk: np.ndarray  # (n_hb, n_cols) eligibility
    sig_blk: np.ndarray  # (n_hb, n_cols)
    eps_blk: np.ndarray  # (n_hb, n_cols)

    @staticmethod
    def build(receptor: Molecule, ligand: Molecule) -> "ScoringTables":
        rec = np.array(receptor.coords, dtype=float, order="C")
        mask = hb.eligible_pairs_mask(
            receptor.hbond_donor,
            receptor.hbond_acceptor,
            ligand.hbond_donor,
            ligand.hbond_acceptor,
        )
        hb_rows = np.flatnonzero(mask.any(axis=1))
        hb_cols = np.flatnonzero(mask.any(axis=0))
        col_slot = np.full(ligand.n_atoms, -1)
        col_slot[hb_cols] = np.arange(hb_cols.size)
        sig_full, eps_full = lj.combine_lj(
            receptor.sigma, receptor.epsilon, ligand.sigma, ligand.epsilon
        )
        block = np.ix_(hb_rows, hb_cols)
        return ScoringTables(
            rec2=2.0 * rec,
            rec_sq=(rec * rec).sum(axis=1)[:, None],
            q_rec=np.array(receptor.charges, dtype=float),
            q_lig=np.array(ligand.charges, dtype=float),
            sig_full=sig_full,
            eps_full=eps_full,
            eps4_full=4.0 * eps_full,
            hb_rows=hb_rows,
            col_slot=col_slot,
            rec_sub=rec[hb_rows],
            dirs_sub=direction_vectors(rec, receptor.bonds)[hb_rows],
            mask_blk=mask[block],
            sig_blk=sig_full[block],
            eps_blk=eps_full[block],
        )


class Eq1Kernel:
    """The full-pair Eq. 1 evaluation every exact path runs.

    One per scorer instance: ``tables`` is frozen and may be shared;
    the three ``(n, m)`` float64 scratch buffers are private, allocated
    on first use and dropped by pickle / ``deepcopy``.

    Each elementwise operation, clamp and reduction is the one
    :mod:`~repro.scoring.pairwise`, the Coulomb term of Eq. 1,
    :mod:`~repro.scoring.lennard_jones` and :mod:`~repro.scoring.hbond`
    define, in their order; ``tests/frozen_eq1.py`` pins the bits.  The
    (n, k) passes run through ``out=``, and H-bond angles and the
    12-10 / LJ mixture are taken on the eligible rows x columns block
    only, then scattered into a zeroed (n_hb, k) buffer so the final
    summation groups the values a full-width pass would.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        tables: ScoringTables | None = None,
    ):
        self.tables = tables or ScoringTables.build(receptor, ligand)
        self._flat = None

    def __getstate__(self):
        return {**self.__dict__, "_flat": None}

    def terms(
        self,
        pose: np.ndarray,
        cols: np.ndarray | None = None,
        *,
        distance_dependent_dielectric: bool = False,
        include_hbond: bool = True,
    ) -> tuple[float, float, float]:
        """(electrostatic, LJ, H-bond) energies of one pose.

        ``pose`` is the ligand's float64 ``(m, 3)`` coordinates; ``cols``
        restricts the evaluation to those ligand columns (the field
        scorer's out-of-box atoms).  A non-finite pose is NaN in all three
        terms before any buffer is touched, as in the cutoff scorers.
        """
        t = self.tables
        if cols is None:
            lig, q_lig, sig = pose, t.q_lig, t.sig_full
        else:
            lig, q_lig, sig = pose[cols], t.q_lig[cols], t.sig_full[:, cols]
        if not np.isfinite(lig).all():
            return float("nan"), float("nan"), float("nan")
        n, k = t.rec2.shape[0], lig.shape[0]
        if self._flat is None:
            self._flat = np.empty((3, n * t.q_lig.size))
        # A k-column view is a contiguous *prefix* of its flat buffer,
        # so reductions see the layout of a fresh (n, k) array.
        d, u, v = (f[: n * k].reshape(n, k) for f in self._flat)
        # Distances: |a - b|^2 = |a|^2 + |b|^2 - 2 a.b, clamped at
        # MIN_DISTANCE so overlaps give the paper's huge-but-finite scores.
        np.matmul(t.rec2, lig.T, out=u)
        np.add(t.rec_sq, (lig * lig).sum(axis=1)[None, :], out=d)
        np.subtract(d, u, out=d)
        np.maximum(d, MIN_DISTANCE * MIN_DISTANCE, out=d)
        np.sqrt(d, out=d)
        # Electrostatics: k/eps * qa (1/r) qb as a bilinear form (1/r^2
        # under the distance-dependent dielectric).
        if distance_dependent_dielectric:
            np.multiply(d, d, out=u)
            np.divide(1.0, u, out=u)
        else:
            np.divide(1.0, d, out=u)
        e_el = float(COULOMB_CONSTANT / DIELECTRIC * (t.q_rec @ u @ q_lig))
        # Lennard-Jones: x6 = (sigma/r)^6, then 4 eps (x6^2 - x6).
        np.divide(sig, d, out=u)
        np.multiply(u, u, out=v)
        np.multiply(v, u, out=v)
        np.multiply(v, v, out=v)
        np.multiply(v, v, out=u)
        np.subtract(u, v, out=u)
        if cols is None:
            e_lj = float(np.multiply(t.eps4_full, u, out=u).sum())
        else:
            # One expression on purpose: the gathered columns are
            # column-major and NumPy writes the product into that
            # temporary when it may elide it (>= 256 KiB), row-major
            # otherwise.  Memory order is summation order; out-of-box
            # field scores are pinned on what this expression yields.
            e_lj = float((4.0 * t.eps_full[:, cols] * u).sum())
        if not (include_hbond and t.hb_rows.size):
            return e_el, e_lj, 0.0
        slot = t.col_slot if cols is None else t.col_slot[cols]
        at = np.flatnonzero(slot >= 0)
        slot = slot[at]
        corr = np.zeros((t.hb_rows.size, k))
        corr[:, at] = hb.hbond_energy_matrix(
            d[t.hb_rows[:, None], at],
            t.mask_blk[:, slot],
            *hb.hbond_angle_factors(t.rec_sub, lig[at], t.dirs_sub),
            t.sig_blk[:, slot],
            t.eps_blk[:, slot],
        )
        return e_el, e_lj, float(corr.sum())

    def score(self, pose: np.ndarray, *, include_hbond: bool = True) -> float:
        """The METADOCK score of one pose: negated :meth:`terms` total."""
        e_el, e_lj, e_hb = self.terms(pose, include_hbond=include_hbond)
        return -(e_el + e_lj + e_hb)


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
    return ScoreBreakdown(
        *Eq1Kernel(receptor, ligand, tables).terms(
            as_pose(ligand.coords, ligand.n_atoms),
            distance_dependent_dielectric=distance_dependent_dielectric,
        )
    )


def interaction_score(receptor: Molecule, ligand: Molecule, **kw) -> float:
    """The METADOCK score: negated Eq. 1 energy (higher = better)."""
    return interaction_breakdown(receptor, ligand, **kw).score


def score_pose_batch(
    receptor: Molecule,
    ligand: Molecule,
    coords_batch: np.ndarray,
    *,
    include_hbond: bool = True,
) -> np.ndarray:
    """Scores for ``k`` ligand coordinate sets against one receptor.

    ``coords_batch`` has shape (k, m, 3); returns shape (k,) scores
    (higher = better).  One :class:`Eq1Kernel` scores every pose, so
    each entry is **bitwise-equal** to ``interaction_score(receptor,
    ligand.with_coords(coords_batch[i]))`` while the tables (the
    dominant fixed cost of a singles loop) are built once.
    """
    cb = as_pose_batch(coords_batch, ligand.n_atoms)
    if cb.shape[0] == 0:
        # Empty batch: short-circuit before building scoring tables.
        return np.empty(0)
    kernel = Eq1Kernel(receptor, ligand)
    return np.array(
        [kernel.score(p, include_hbond=include_hbond) for p in cb]
    )
