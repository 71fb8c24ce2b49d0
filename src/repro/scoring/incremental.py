"""Cutoff pose scoring for two access patterns: the walk and the jump.

The RL action set moves the ligand at most ~1 A per step (Table 1), so
the set of receptor atoms within the cutoff of any ligand atom barely
changes between consecutive scores.  :meth:`IncrementalScorer.score`
(the *walk*: env steps, actor rollouts) exploits this with the classic
Verlet-list construction:

- the *pair list* holds every (receptor atom, ligand atom) pair within
  ``cutoff + skin`` of the ligand's position at the last *build*;
- the list provably covers every within-``cutoff`` pair as long as no
  ligand atom has moved more than ``skin / 2`` since the build (the
  receptor is static, so the usual skin/2-per-particle budget is all
  the ligand's — the guarantee is conservative);
- a *rebuild* is triggered only when the maximum ligand-atom
  displacement since the last build exceeds ``skin / 2``.

At build time everything per-pair scoring needs is gathered once into
preallocated flat tables — Coulomb charge products, combined
Lorentz-Berthelot sigma/epsilon, H-bond eligibility and receptor donor
directions — so a cached step is pure vectorized arithmetic over
contiguous buffers with no per-step allocation.

A search that *jumps* — a scatter search's population, recombined
children — breaks the skin budget on most poses: a list would be
built for nearly every one and then scored over a superset about twice
its cutoff pair set.  :meth:`IncrementalScorer.score_batch` (the jump
path) therefore skips the list: each pose queries the shared receptor
``CellList`` at radius ``cutoff`` and is scored on exactly its
within-cutoff pairs, leaving the walk's list and counters untouched.
Both paths end in one energy kernel, :meth:`IncrementalScorer._energy`.

Bit-stability (checkpoint safety)
---------------------------------
The pair-list cache is *derived* state: it is never checkpointed, and a
resumed run starts with a cold cache.  The score must therefore be a
pure function of the pose, independent of when the list was last built
and of which path scored it.  Two properties guarantee this:

1. :func:`repro.scoring.neighborlist.candidate_pairs` returns pairs in
   the receptor ``CellList``'s canonical order (ligand-atom-major, cells
   ascending, stored index ascending within a cell), which depends only
   on pair *membership*, not on the query radius or where the query was
   centered; and
2. each evaluation first *compresses* its candidates — the cached
   ``cutoff + skin`` list on the walk, the pose's own ``cutoff`` query
   on the jump — to exactly the pairs with ``r <= cutoff``, with the
   same arithmetic, and every reduction runs over those compressed
   arrays.

Hence a fresh scorer, a scorer carrying a warm cache and a batch entry
produce bit-identical floats for the same coordinates (pinned by
``tests/test_scoring_incremental.py`` and
``tests/test_scoring_batch.py``), and interrupt/resume of a run using
``--scoring-method incremental`` stays bit-stable per
``docs/CHECKPOINTS.md``.

At ``skin = 0`` the list radius is the cutoff itself, so every moved
pose rebuilds and the walk is the stateless cutoff scorer: the
registry's "cutoff" method is this class with the skin fixed at 0.
Any skin matches ``tests/cutoff_reference.py``, an independently
written cutoff scorer, to within :data:`DRIFT_REL_BOUND` (same pair
set, same per-pair formulas; only floating-point association
differs).  The truncation error *versus the exact scorer* is the
cutoff's accuracy knob, quantified per cutoff in
``docs/PERFORMANCE.md`` and ``benchmarks/test_bench_score_step.py``.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, DEFAULT_CUTOFF, MIN_DISTANCE
from repro.scoring import hbond as hb
from repro.scoring.composite import as_pose, as_pose_batch
from repro.scoring.neighborlist import CellList, candidate_pairs
from repro.scoring.pairwise import direction_vectors

#: Default Verlet skin, angstrom.  With the paper's 1 A shift actions a
#: 3 A skin re-lists every 2-4 shift steps in the worst case and far
#: less often under mixed shift/rotation policies (a 0.5 deg rotation
#: moves atoms only ~0.04 A); larger skins trade fewer rebuilds for more
#: candidate pairs per step.
DEFAULT_SKIN: float = 3.0

#: Documented bound on the relative score drift of this scorer, at any
#: skin including the registry "cutoff" method's 0, versus the
#: independently written reference in ``tests/cutoff_reference.py`` at
#: the same cutoff (``max |inc - ref| / max(1, |ref|)``): identical pair
#: set and per-pair formulas, so only floating-point association
#: differs -- products and powers are grouped differently, and at
#: skin > 0 the cell size, hence the summation order, differs too.
#: Measured at most 1.7e-14 (8 A cutoff) and 1.2e-14 (12 A) at skin 0,
#: 1.7e-14 and 1.3e-14 at the default skin, over 651 crystal-walk,
#: pose-A-walk and scattered poses on the 2BSM complex; enforced by
#: tests/test_scoring_incremental.py and
#: benchmarks/test_bench_score_step.py.  The error versus the *exact*
#: scorer is the cutoff truncation itself — see the "Scoring kernels"
#: section of docs/PERFORMANCE.md for the measured truncation table and
#: the bound the bench enforces for it.
DRIFT_REL_BOUND: float = 1e-9

#: Telemetry metric names (registered lazily on the attached registry).
REBUILDS_METRIC = "scoring/neighborlist_rebuilds"
ACTIVE_PAIRS_METRIC = "scoring/active_pairs"


class IncrementalScorer:
    """Cutoff scorer: a Verlet list for the walk, exact pairs per jump.

    At ``skin = 0`` -- the registry's "cutoff" method -- the list holds
    exactly one pose's cutoff pairs and every moved pose rebuilds it.

    Parameters
    ----------
    receptor, ligand:
        The static receptor and the ligand template (topology and
        charges; coordinates arrive per call).
    cutoff:
        Interaction cutoff in angstrom — the accuracy knob.
    skin:
        Extra list radius in angstrom (>= 0) — the walk's cadence knob.
    shifted:
        Use the energy-shifted Coulomb form ``k q_i q_j (1/r - 1/Rc)``
        (default), which is continuous at the cutoff.  With sharp
        truncation, shells of like-charged receptor atoms enter the sum
        discontinuously as the cutoff grows, and the error is large and
        non-monotone on inhomogeneously charged receptors.
    cells:
        A prebuilt :meth:`receptor_cache` for this receptor, cutoff and
        skin, to share between the scorers of one receptor; built
        privately when omitted.  Checked once here: a non-``CellList``
        raises ``TypeError``; a cell list over other points, or with
        another cell size (hence another canonical pair order, e.g. an
        "incremental" cache passed to a "cutoff" scorer), raises
        ``ValueError``.

    Attributes
    ----------
    rebuild_count:
        Number of pair-list builds performed so far.
    active_pairs:
        Within-cutoff pair count of the most recent :meth:`score`.
    tracer / metrics:
        Optional telemetry hooks (a ``SpanTracer`` and a
        ``MetricsRegistry``); wired automatically by ``MetadockEngine``.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        cutoff: float = DEFAULT_CUTOFF,
        skin: float = DEFAULT_SKIN,
        *,
        shifted: bool = True,
        cells: CellList | None = None,
    ):
        if not cutoff > 0:  # NaN too: it would score every pose 0.0
            raise ValueError("cutoff must be positive")
        if not skin >= 0:
            raise ValueError("skin must be non-negative")
        self.receptor = receptor
        self.ligand = ligand
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.shifted = bool(shifted)
        self.tracer = None
        self.metrics = None
        self.rebuild_count = 0
        self.active_pairs = 0
        self._list_radius = self.cutoff + self.skin
        self._half_skin_sq = (0.5 * self.skin) ** 2
        self._cutoff_sq = self.cutoff * self.cutoff
        self._inv_cutoff = 1.0 / self.cutoff
        if cells is None:
            cells = self.receptor_cache(receptor, cutoff, skin)
        elif not isinstance(cells, CellList):
            raise TypeError(
                "cells must be a prebuilt CellList, got "
                f"{type(cells).__name__}"
            )
        elif not np.array_equal(cells.points, receptor.coords):
            raise ValueError(
                "cells was built over other points than the receptor's "
                "coordinates"
            )
        elif cells.cell_size != self._list_radius / 2.0:
            raise ValueError(
                f"cells has cell_size {cells.cell_size}, but cutoff "
                f"{self.cutoff} and skin {self.skin} need "
                f"{self._list_radius / 2.0}: build it with "
                "receptor_cache for the same scoring kwargs"
            )
        self._cells = cells
        self._dirs_full = direction_vectors(receptor.coords, receptor.bonds)
        self._iso_full = hb.isotropic(self._dirs_full)
        self._mask_full = hb.eligible_pairs_mask(
            receptor.hbond_donor,
            receptor.hbond_acceptor,
            ligand.hbond_donor,
            ligand.hbond_acceptor,
        )
        m = ligand.n_atoms
        self._ref = np.zeros((m, 3))
        self._disp = np.empty((m, 3))
        self._disp_row = np.empty(m)
        self._have_list = False
        self._n_pairs = 0
        self._any_elig = False
        self._cap = 0

    @classmethod
    def receptor_cache(
        cls,
        receptor: Molecule,
        cutoff: float = DEFAULT_CUTOFF,
        skin: float = DEFAULT_SKIN,
        **_pair_kwargs,
    ) -> CellList:
        """The receptor cell list every ligand's scorer can share.

        Takes the scorer's config kwargs (those that only shape the
        per-pair arithmetic are ignored) and returns what ``__init__``
        builds for itself when ``cells`` is None -- screening workers
        sort the receptor once and pass it to every ligand's scorer.
        The bin edge ``(cutoff + skin) / 2`` (``cutoff / 2`` at skin 0)
        only fixes the canonical pair order (hence the summation order,
        hence every digest); query cost does not depend on it.
        """
        return CellList(
            receptor.coords, cell_size=(float(cutoff) + float(skin)) / 2.0
        )

    # -- capacity / buffers -------------------------------------------------
    def _ensure_capacity(self, n: int) -> None:
        """Grow the gather tables and work buffers to hold ``n`` pairs."""
        if n <= self._cap:
            return
        cap = max(n, self._cap + self._cap // 4 + 16)
        # Build-time gather tables (filled at rebuild, read every step).
        self._lig_idx = np.empty(cap, dtype=np.int64)
        self._rec_xyz = np.empty((cap, 3))
        # _gather_static's rows as one (3, cap) block, so the per-step
        # compression is one call over contiguous rows.
        self._static = np.empty((3, cap))
        self._elig = np.empty(cap, dtype=bool)
        self._dirs = np.empty((cap, 3))
        self._iso = np.empty(cap, dtype=bool)
        # Per-step work over the full candidate list ...
        self._lig_xyz = np.empty((cap, 3))
        self._diff = np.empty((cap, 3))
        self._r2 = np.empty(cap)
        self._act = np.empty(cap, dtype=bool)
        self._both = np.empty(cap, dtype=bool)
        # ... and over the compressed within-cutoff subset (``_c_work``
        # is _energy's scratch: 1/r, Coulomb terms, sigma/r, its 6th
        # power, LJ terms).
        self._c_static = np.empty((3, cap))
        self._c_r = np.empty(cap)
        self._c_work = tuple(np.empty(cap) for _ in range(5))
        self._c_elig = np.empty(cap, dtype=bool)
        self._cap = cap

    # -- per-pair tables -----------------------------------------------------
    def _gather_static(
        self, rec_idx: np.ndarray, lig_idx: np.ndarray, static: np.ndarray
    ) -> None:
        """Fill the (3, n) ``static`` rows for the pairs ``(rec_idx, lig_idx)``.

        Rows: Coulomb-prescaled charge product k*q_r*q_l, combined sigma
        (s_r+s_l)/2, and 4*sqrt(e_r*e_l) (the 12-6 prefactor).
        """
        rec = self.receptor
        lig_mol = self.ligand
        qq = static[0]
        np.take(rec.charges, rec_idx, out=qq)
        qq *= lig_mol.charges[lig_idx]
        qq *= COULOMB_CONSTANT
        sig = static[1]
        np.take(rec.sigma, rec_idx, out=sig)
        sig += lig_mol.sigma[lig_idx]
        sig *= 0.5
        eps = static[2]
        np.take(rec.epsilon, rec_idx, out=eps)
        eps *= lig_mol.epsilon[lig_idx]
        np.sqrt(eps, out=eps)
        eps *= 4.0

    # -- list construction --------------------------------------------------
    def _rebuild(self, lig: np.ndarray) -> None:
        # The rounding-margin superset is enough: every score compresses
        # the list to r <= cutoff exactly, and the skin leaves skin/2 of
        # slack against a margin below 1e-7 A.
        rec_idx, lig_idx = candidate_pairs(
            self._cells, lig, self._list_radius
        )
        n = int(rec_idx.size)
        self._ensure_capacity(n)
        self._n_pairs = n
        if n:
            self._lig_idx[:n] = lig_idx
            np.take(
                self.receptor.coords, rec_idx, axis=0, out=self._rec_xyz[:n]
            )
            self._gather_static(rec_idx, lig_idx, self._static[:, :n])
            self._elig[:n] = self._mask_full[rec_idx, lig_idx]
            self._any_elig = bool(self._elig[:n].any())
            if self._any_elig:
                np.take(
                    self._dirs_full, rec_idx, axis=0, out=self._dirs[:n]
                )
                np.take(self._iso_full, rec_idx, out=self._iso[:n])
        else:
            self._any_elig = False
        self._ref[:] = lig
        self._have_list = True
        self.rebuild_count += 1
        if self.metrics is not None:
            self.metrics.inc(REBUILDS_METRIC)

    def _needs_rebuild(self, lig: np.ndarray) -> bool:
        if not self._have_list:
            return True
        d = self._disp
        np.subtract(lig, self._ref, out=d)
        d *= d
        d.sum(axis=1, out=self._disp_row)
        return bool(self._disp_row.max() > self._half_skin_sq)

    # -- scoring -------------------------------------------------------------
    def _score_pose(self, lig: np.ndarray) -> float:
        if not np.isfinite(lig).all():
            # No pair is "in range" of a NaN: without this the pose
            # would score 0.0 and outrank every clash.  The list is
            # left as it was.
            return float("nan")
        if self._needs_rebuild(lig):
            if self.tracer is not None:
                with self.tracer.span("neighborlist-rebuild"):
                    self._rebuild(lig)
            else:
                self._rebuild(lig)
        return self._score_cached(lig)

    def score(self, coords: np.ndarray) -> float:
        return self._score_pose(as_pose(coords, self.ligand.n_atoms))

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray:
        """Scores for (k, m, 3) poses, each from its own cutoff pair set.

        The jump path.  A batch holds poses a search has *jumped* to
        (scatter-search populations, recombined children), so a Verlet
        list would be rebuilt for most of them and then scored over a
        ``cutoff + skin`` superset about twice the pose's cutoff pair
        set.  Each finite pose instead queries the shared cell list at
        radius ``cutoff``, keeps exactly the pairs with
        ``r <= cutoff``, gathers the per-pair tables for those alone
        and runs :meth:`_energy` on them -- the pair set, order and
        arithmetic :meth:`score` reduces over, so every entry is bitwise
        a fresh scorer's ``score(coords_batch[i])``.

        The walk's state is neither read nor written: the Verlet list,
        ``rebuild_count``, ``active_pairs`` and the telemetry gauges are
        what they were before the call, and a walk with batch calls
        interleaved rebuilds exactly when it would alone.  Temporaries
        are sized to one pose's pairs.
        """
        cb = as_pose_batch(coords_batch, self.ligand.n_atoms)
        out = np.empty(cb.shape[0])
        for i, lig in enumerate(cb):
            out[i] = self._score_jump(lig)
        return out

    def _score_jump(self, lig: np.ndarray) -> float:
        if not np.isfinite(lig).all():
            return float("nan")
        rec_idx, lig_idx = candidate_pairs(self._cells, lig, self.cutoff)
        diff = np.take(lig, lig_idx, axis=0)
        diff -= np.take(self.receptor.coords, rec_idx, axis=0)
        r2 = np.einsum("ij,ij->i", diff, diff)
        # candidate_pairs may keep a few pairs beyond the cutoff by
        # rounding only; drop them exactly as the walk's compression does.
        act = r2 <= self._cutoff_sq
        na = int(np.count_nonzero(act))
        if na == 0:
            return 0.0
        if na < r2.size:
            rec_idx = np.compress(act, rec_idx)
            lig_idx = np.compress(act, lig_idx)
            r2 = np.compress(act, r2)
            diff = np.compress(act, diff, axis=0)
        static = np.empty((3, na))
        self._gather_static(rec_idx, lig_idx, static)
        hbond = None
        elig = self._mask_full[rec_idx, lig_idx]
        if elig.any():
            rec_el = np.compress(elig, rec_idx)
            hbond = (
                elig,
                np.compress(elig, diff, axis=0),
                np.take(self._dirs_full, rec_el, axis=0),
                np.take(self._iso_full, rec_el),
            )
        return -self._energy(r2, static, np.empty((5, na)), hbond)

    def _score_cached(self, lig: np.ndarray) -> float:
        n = self._n_pairs
        if n == 0:
            self.active_pairs = 0
            if self.metrics is not None:
                self.metrics.set(ACTIVE_PAIRS_METRIC, 0)
            return 0.0
        # Squared distances over the full candidate list.
        ligx = self._lig_xyz[:n]
        np.take(lig, self._lig_idx[:n], axis=0, out=ligx)
        diff = self._diff[:n]
        np.subtract(ligx, self._rec_xyz[:n], out=diff)
        r2 = self._r2[:n]
        np.einsum("ij,ij->i", diff, diff, out=r2)
        # Compress to the exact within-cutoff pair set.  This subset
        # (content *and* order) is a pure function of the pose, so every
        # reduction in _energy is bit-stable across rebuild states.
        act = self._act[:n]
        np.less_equal(r2, self._cutoff_sq, out=act)
        na = int(np.count_nonzero(act))
        self.active_pairs = na
        if self.metrics is not None:
            self.metrics.set(ACTIVE_PAIRS_METRIC, na)
        if na == 0:
            return 0.0
        c_r = self._c_r[:na]
        np.compress(act, r2, out=c_r)
        c_static = self._c_static[:, :na]
        np.compress(act, self._static[:, :n], axis=1, out=c_static)
        # Hydrogen-bond inputs of the eligible pairs (a small subset;
        # the transient selections here are tiny).
        hbond = None
        if self._any_elig:
            c_elig = self._c_elig[:na]
            np.compress(act, self._elig[:n], out=c_elig)
            if c_elig.any():
                both = self._both[:n]
                np.logical_and(act, self._elig[:n], out=both)
                hbond = (
                    c_elig,
                    np.compress(both, diff, axis=0),
                    np.compress(both, self._dirs[:n], axis=0),
                    np.compress(both, self._iso[:n]),
                )
        return -self._energy(c_r, c_static, self._c_work, hbond)

    def _energy(self, c_r, c_static, work, hbond) -> float:
        """Interaction energy over one pose's exact within-cutoff pairs.

        The one kernel behind :meth:`score` and :meth:`score_batch`.
        ``c_r`` holds the pairs' squared distances in canonical pair
        order (overwritten with the clamped distances), ``c_static``
        their :meth:`_gather_static` rows and ``work`` five scratch rows
        at least as long.  ``hbond`` is None when no pair is H-bond
        eligible, else ``(mask, u, dirs, iso)``: the eligibility mask
        over the pairs, then the ligand-minus-receptor vectors, receptor
        donor directions and isotropy flags of the eligible ones.
        """
        na = c_r.shape[0]
        np.sqrt(c_r, out=c_r)
        np.maximum(c_r, MIN_DISTANCE, out=c_r)
        # Electrostatics (optionally energy-shifted at the cutoff).
        c_inv = work[0][:na]
        np.divide(1.0, c_r, out=c_inv)
        if self.shifted:
            c_inv -= self._inv_cutoff
        e = work[1][:na]
        np.multiply(c_static[0], c_inv, out=e)
        energy = float(e.sum())
        # Lennard-Jones: 4 eps ((sig/r)^12 - (sig/r)^6), cube-then-square
        # like lennard_jones_energy_matrix.
        x = work[2][:na]
        np.divide(c_static[1], c_r, out=x)
        x6 = work[3][:na]
        np.multiply(x, x, out=x6)
        x6 *= x
        x6 *= x6
        e_lj = work[4][:na]
        np.multiply(x6, x6, out=e_lj)
        e_lj -= x6
        e_lj *= c_static[2]
        energy += float(e_lj.sum())
        # Hydrogen-bond correction on eligible pairs.
        if hbond is not None:
            c_elig, u, dirs, iso = hbond
            d_el = np.compress(c_elig, c_r)
            e_lj_sub = np.compress(c_elig, e_lj)
            c_hb, d_hb = hb.hbond_coefficients()
            e_1210 = c_hb / d_el**12 - d_hb / d_el**10
            ani = np.flatnonzero(~iso)
            cos = np.ones(iso.size)
            sin = np.zeros(iso.size)
            ua = u[ani]
            norm = np.maximum(np.linalg.norm(ua, axis=1), 1e-9)
            c = (dirs[ani] * ua).sum(axis=1) / norm
            np.clip(c, 0.0, 1.0, out=c)
            cos[ani] = c
            sin[ani] = np.sqrt(np.maximum(0.0, 1.0 - c * c))
            energy += float((cos * e_1210 - (1.0 - sin) * e_lj_sub).sum())
        return energy
