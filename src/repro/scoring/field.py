"""Hybrid precomputed-field pose scoring (AutoDock-style receptor maps).

The incremental Verlet scorer still touches receptor atoms on every
step; the next order of magnitude comes from tabulating the rigid
receptor's fields once and reducing a pose evaluation to O(ligand
atoms) trilinear interpolations.  :class:`FieldScorer` is a *hybrid*
two-regime scorer built around :class:`FieldMaps`:

Far field (interpolated)
------------------------
Every Eq. 1 term decomposes per ligand atom (each pair contains exactly
one ligand atom), so the receptor's contribution to a ligand atom of a
given *type* is a pure scalar field of position and can be tabulated:

- an electrostatic potential map ``phi(x) = k sum_j q_j / r_j``
  (multiplied by the ligand charge at evaluation time -- exact per
  atom);
- per distinct ligand ``(sigma, epsilon)`` type one repulsion /
  dispersion map pair ``rep_t(x) = sum_j 4 sqrt(eps_j eps_t)
  ((sigma_j+sigma_t)/2)^12 / r_j^12`` and the ``^6`` analogue -- the
  *exact* Lorentz-Berthelot arithmetic-sigma combination (no
  geometric-mean approximation to make the weights separable);
- per H-bond eligibility class (ligand donor/acceptor flags) an
  angular-weighted 12-10 map ``sum_j cos(theta_j(x)) (C/r^12 -
  D/r^10)`` over the class-eligible receptor atoms, plus per (type x
  class) the ``(1 - sin(theta_j(x)))``-weighted repulsion/dispersion
  pair carrying the ``- (1 - sin) e_lj`` part of the Eq. 1 correction.
  ``theta_j(x)`` depends only on the receptor donor direction and the
  grid position, so the full angular term tabulates exactly.

Near field (exact pairwise)
---------------------------
Interpolating ``r^-12`` spikes is hopeless, so the maps never contain
them: every kernel is tabulated with the pair distance *clipped from
below* at ``clash_radius`` (``f_clip(r) = f(max(r, clash_radius))``),
which bounds the fields' curvature everywhere and makes trilinear
interpolation uniformly well-behaved -- including *inside* the
receptor.  Exactness near the surface is restored pairwise: ligand
atoms within ``clash_radius`` of a receptor atom are rescored through
the exact pairwise path -- each overlapping pair's full Eq. 1 energy
at the true (MIN_DISTANCE-clamped, like the exact scorer) distance
replaces its clipped-kernel contribution analytically.  Overlap
detection reuses the cell-list idea of
:mod:`repro.scoring.neighborlist` at voxel granularity: the build
precomputes, for every grid voxel, the receptor atoms that could
overlap an atom inside it (a CSR candidate table over the same node
distances the maps integrate), so at score time candidates arrive in
one gather with no spatial query at all, and a distance check keeps
the actual ``r < clash_radius`` pairs (the table is validated against
an exact query on a receptor ``CellList`` in the tests).  The
clash-dominating terms are therefore computed exactly, pair by pair,
while everything smooth stays two table lookups per atom.

Two lattice levels
------------------
The fine lattice (``spacing``, ``padding``) hugs the receptor; the
env's start pose (Figure 3, pose A) and the whole escape ball
(``escape_factor`` x the initial COM distance) reach well beyond it.
A second, coarse *outer* level -- the same :class:`FieldMaps` class
built in the same ``ensure()`` call, its geometry derived from the fine
level by :data:`OUTER_SPACING_RATIO` / :data:`OUTER_PADDING_RATIO` --
covers that ball, so atoms outside the fine box but inside the outer
box (the *shell*) are interpolated too: they are at least ``padding`` >
``clash_radius`` from every receptor atom, where no pair can overlap
(no pair corrections, no candidate table on the outer level) and the
fields are smooth.  Smooth, but the per-step score *changes* out there
are tiny (a 0.5 degree rotation moves an atom 0.05 A), and their sign
is the reward: trilinear interpolation's gradient is only first-order
accurate (relative error ~ spacing / distance), which on a 4 A -- or
even a 2 A -- lattice flips too many reward signs.  The outer level is
therefore read with the 4-point *cubic* Lagrange stencil per axis (64
nodes, exact for cubics; no prefilter, so each slot stays a pure
function of its own maps), which makes the shell's error negligible
next to the fine level's.  Both levels live in one flattened stack
and share one stencil kernel (2 or 4 nodes per axis).  Only atoms
outside *both* boxes take the exact full-column path -- there is no
silent boundary clamp.

Error budget (PR 5 truncation-policy style)
-------------------------------------------
A pose whose atoms are all outside both boxes scores *bit-identically*
to :class:`~repro.scoring.scorers.ExactScorer` (same kernels, same
reduction order).  For in-box atoms the only error source is
interpolation of the clipped fields, whose curvature is bounded by the
kernels at ``r = clash_radius``; overlapping pairs -- where the exact
and clipped kernels diverge by up to ~1e15 -- contribute their
difference exactly.  The documented per-step score-change bounds at
the default ``spacing``/``clash_radius`` are
:data:`FIELD_CALM_STEP_BOUND` (calm docking regime) and
:data:`FIELD_CLASH_REL_BOUND` (clash regime, dominated by the exact
pair corrections), measured at 2BSM scale by
``benchmarks/test_bench_score_step.py`` and tabulated per spacing in
docs/PERFORMANCE.md ("Scoring kernels").

Bit-stability (checkpoint safety)
---------------------------------
Maps are *derived* state: never checkpointed.  A resumed run (like any
later process over the same receptor) loads bit-identical maps from the
on-disk cache of :mod:`repro.scoring.fieldbuild`, or builds them cold.
Every map's content is a pure function of (receptor, geometry, atom
type) -- each is accumulated independently of which other types share a
build pass, and of how many threads ran it
(:mod:`repro.scoring.fieldbuild`) -- the
overlap-pair enumeration follows the candidate
table's canonical atom-major-then-receptor-ascending order, and the
pair corrections are pure functions of the pose, so a warm (shared /
previously-built) scorer and a cold one
produce bit-identical floats for the same coordinates (pinned by
``tests/test_scoring_field.py``), and interrupt/resume under
``--scoring-method field`` stays bit-exact per docs/CHECKPOINTS.md.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, MIN_DISTANCE
from repro.scoring import hbond as hb
from repro.scoring.composite import Eq1Kernel, as_pose, as_pose_batch
from repro.scoring.fieldbuild import fill_maps
from repro.scoring.pairwise import direction_vectors

#: Default lattice spacing, angstrom.  The error-vs-spacing table in
#: docs/PERFORMANCE.md motivates the default: with the clipped kernels
#: 1.0 A already keeps calm-regime per-step drift well under
#: :data:`FIELD_CALM_STEP_BOUND`, and the compact maps stay
#: cache-resident (halving the spacing grew the maps 8x and measurably
#: *slowed* the gather at 2BSM scale).
DEFAULT_SPACING: float = 1.0
#: Default fine-box padding beyond the receptor extent, angstrom.  The
#: fine box holds pocket poses and their neighbourhood; it does *not*
#: hold the env's start pose (Figure 3's pose A sits ~14 A off the
#: pocket mouth with about a third of its atoms inside) -- the outer
#: level below covers that regime.  Must exceed ``clash_radius`` so
#: atoms outside the fine box cannot have overlapping pairs (enforced
#: at construction).
DEFAULT_PADDING: float = 16.0
#: Outer-level lattice spacing as a multiple of the fine spacing.
OUTER_SPACING_RATIO: float = 4.0
#: Outer-level box padding as a multiple of the fine padding: at the
#: defaults 48 A beyond the receptor extent (44 A usable: the cubic
#: stencil needs a one-node margin), which contains the env's escape
#: ball (``escape_factor`` x the initial COM distance plus the ligand's
#: bounding radius) for the 2BSM-scale and CI-scale complexes.
OUTER_PADDING_RATIO: float = 3.0
#: Default near-field (exact-pair) radius, angstrom.  Map kernels are
#: clipped at this distance; pairs closer than it are rescored through
#: the exact pairwise path.  Beyond it the clipped fields are smooth
#: enough for trilinear interpolation.
DEFAULT_CLASH_RADIUS: float = 3.0
#: Default map storage dtype ("float32" halves map memory; error impact
#: measured in BENCH_score_step.json).
DEFAULT_DTYPE: str = "float64"

#: Documented per-step score-change drift bound vs ExactScorer in the
#: calm docking regime (|score| < 1e4) at the default spacing / clash
#: radius, kcal/mol.  Measured at 2BSM scale by the score bench (see
#: BENCH_score_step.json and docs/PERFORMANCE.md); enforced with margin
#: there.
FIELD_CALM_STEP_BOUND: float = 25.0
#: Documented relative per-step drift bound on clash steps: the
#: clash-dominating overlap pairs are computed exactly, so both scorers
#: are dominated by the same clamped pairs and only the smooth
#: interpolated remainder differs (measured ~8e-5 at the defaults).
FIELD_CLASH_REL_BOUND: float = 1e-3

#: Gauge reporting the built field maps' memory footprint (both
#: levels' maps plus the shared combined interpolation stack).
FIELD_BYTES_METRIC = "scoring/field_bytes"
#: Gauge counting the ``ensure`` passes whose maps came (at least in
#: part) off the on-disk map cache instead of the build kernel.
FIELD_LOADS_METRIC = "scoring/field_map_loads"
#: Histogram over the per-call fraction of ligand atoms routed through
#: the exact pairwise path (overlapping atoms, or atoms outside both
#: boxes; ``repro inspect`` renders its mean/max).
NEAR_FRACTION_METRIC = "scoring/near_field_fraction"
#: Histogram over the per-call fraction of ligand atoms interpolated
#: from the outer level (outside the fine box, inside the outer box).
OUTER_FRACTION_METRIC = "scoring/outer_field_fraction"

_VALID_DTYPES = ("float32", "float64")


def _atom_type_specs(ligand: Molecule) -> tuple[list[tuple], np.ndarray]:
    """Distinct (sigma, epsilon, donor, acceptor) tuples + per-atom ids.

    Ligand atoms draw their parameters from the small element palette
    (:mod:`repro.chem.elements`), so the distinct-type count is a
    handful regardless of ligand size -- per-type maps stay cheap and
    different library ligands share maps whenever they share elements.
    """
    specs: list[tuple] = []
    seen: dict[tuple, int] = {}
    ids = np.empty(ligand.n_atoms, dtype=np.int64)
    for i in range(ligand.n_atoms):
        s = (
            float(ligand.sigma[i]),
            float(ligand.epsilon[i]),
            bool(ligand.hbond_donor[i]),
            bool(ligand.hbond_acceptor[i]),
        )
        if s not in seen:
            seen[s] = len(specs)
            specs.append(s)
        ids[i] = seen[s]
    return specs, ids


def _trilinear_weights(t: np.ndarray) -> np.ndarray:
    """``(rows, 8)`` weights of a cell's corners (x-major) for in-cell
    offsets ``t``.  Column by column: long contiguous loops, which is
    what keeps the fused batch path fast."""
    tx, ty, tz = t[:, 0], t[:, 1], t[:, 2]
    ex, ey, ez = 1.0 - tx, 1.0 - ty, 1.0 - tz
    p00 = ex * ey
    p01 = ex * ty
    p10 = tx * ey
    p11 = tx * ty
    w = np.empty((t.shape[0], 8))
    w[:, 0] = p00 * ez
    w[:, 1] = p00 * tz
    w[:, 2] = p01 * ez
    w[:, 3] = p01 * tz
    w[:, 4] = p10 * ez
    w[:, 5] = p10 * tz
    w[:, 6] = p11 * ez
    w[:, 7] = p11 * tz
    return w


def _tricubic_weights(t: np.ndarray) -> np.ndarray:
    """``(rows, 64)`` tensor-product Lagrange weights of the 4 x 4 x 4
    nodes at -1, 0, 1, 2 per axis (x-major) for in-cell offsets ``t``."""
    a, b, c = t + 1.0, t - 1.0, t - 2.0
    ax = np.empty(t.shape + (4,))
    ax[..., 0] = t * b * c / -6.0
    ax[..., 1] = a * b * c / 2.0
    ax[..., 2] = a * t * c / -2.0
    ax[..., 3] = a * t * b / 6.0
    return (
        ax[:, 0, :, None, None]
        * ax[:, 1, None, :, None]
        * ax[:, 2, None, None, :]
    ).reshape(t.shape[0], 64)


class FieldMaps:
    """Lazily grown per-type receptor field maps on a two-level lattice.

    One instance serves every ligand scored against its receptor:
    screening workers build it once per worker and pass it to each
    :class:`FieldScorer` via ``cells=`` (mirroring the cell-list
    sharing of the neighbour-list scorers).  ``ensure`` builds
    only the maps missing for a ligand's type set; each map's content
    is independent of which other types share a build pass, so shared
    and private builds are bitwise identical.

    The instance a caller constructs is the *fine* level; it owns the
    coarse :attr:`outer` level (module docstring, "Two lattice
    levels"), which is built, extended and sized along with it.
    """

    def __init__(
        self,
        receptor: Molecule,
        *,
        spacing: float = DEFAULT_SPACING,
        padding: float = DEFAULT_PADDING,
        clash_radius: float = DEFAULT_CLASH_RADIUS,
        dtype: str = DEFAULT_DTYPE,
        _is_outer: bool = False,
    ):
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        if clash_radius <= 0:
            raise ValueError("clash_radius must be positive")
        if padding <= clash_radius:
            raise ValueError(
                "padding must exceed clash_radius (out-of-box atoms "
                "must have no overlapping pairs)"
            )
        if dtype not in _VALID_DTYPES:
            raise ValueError(
                f"dtype must be one of {_VALID_DTYPES}, got {dtype!r}"
            )
        self.receptor = receptor
        self.spacing = float(spacing)
        self.padding = float(padding)
        self.clash_radius = float(clash_radius)
        self.dtype = str(dtype)
        self._np_dtype = np.dtype(dtype)
        #: Kernel clip distance (exact-path MIN_DISTANCE still applies
        #: below it, on the pair-correction side).
        self.clip_radius = max(self.clash_radius, MIN_DISTANCE)
        self.origin = receptor.coords.min(axis=0) - padding
        upper = receptor.coords.max(axis=0) + padding
        self.shape = np.ceil((upper - self.origin) / spacing).astype(int) + 1
        # Lattice addressing.  A point in cell ``idx`` is interpolated
        # from the ``support`` nodes per axis starting ``margin`` nodes
        # below the cell (2 / 0 on the fine level: the cell's corners;
        # 4 / 1 on the outer level), so it is *in the box* while that
        # stencil exists: margin <= frac <= shape - 1 - margin.  Flat
        # node id = idx @ strides; the stencil's nodes sit at
        # (idx - margin) @ strides + stencil_offs.
        nx, ny, nz = (int(v) for v in self.shape)
        self.n_nodes = nx * ny * nz
        self.strides = np.array([ny * nz, nz, 1], dtype=np.int64)
        self.support = 4 if _is_outer else 2
        self.margin = self.support // 2 - 1
        self.stencil_weights = (
            _tricubic_weights if _is_outer else _trilinear_weights
        )
        k = np.arange(self.support, dtype=np.int64)
        self.stencil_offs = (
            k[:, None, None] * (ny * nz) + k[None, :, None] * nz + k
        ).reshape(-1)
        self.inv_spacing = 1.0 / self.spacing
        self.upper = self.shape.astype(float) - 1.0 - self.margin
        self.max_idx = self.shape - 2 - self.margin
        #: In-slot id of this level's node 0 in the shared stack (the
        #: outer level's nodes follow the fine level's).
        self.slot_base = 0
        #: The coarse outer level (None on the outer level itself).
        self.outer: FieldMaps | None = (
            None
            if _is_outer
            else FieldMaps(
                receptor,
                spacing=OUTER_SPACING_RATIO * self.spacing,
                padding=OUTER_PADDING_RATIO * self.padding,
                clash_radius=clash_radius,
                dtype=dtype,
                _is_outer=True,
            )
        )
        if self.outer is not None:
            self.outer.slot_base = self.n_nodes
        #: Candidate radius for the clash-voxel table: a receptor atom
        #: within this of a voxel's base node is a candidate for every
        #: point inside the voxel, so an atom in a voxel with no
        #: candidates provably has no receptor atom within clash_radius
        #: (node-to-anywhere-in-voxel <= spacing * sqrt(3)).
        self.flag_radius = self.clash_radius + self.spacing * np.sqrt(3.0)
        # Type-independent content, built on the first ensure() pass.
        self.phi: np.ndarray | None = None
        self.near_mask: np.ndarray | None = None
        # Voxel-granular cell list (CSR over flat node ids): receptor
        # atoms within flag_radius of each voxel's base node.  Fine
        # level only -- shell atoms cannot overlap a receptor atom.
        self.cand_start: np.ndarray | None = None
        self.cand_count: np.ndarray | None = None
        self.cand_atoms: np.ndarray | None = None
        # Per-type / per-class maps (lazily grown).
        self._lj: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._hb1210: dict[tuple, np.ndarray] = {}
        self._hblj: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        # Combined-stack addressing: every distinct atom-type spec ever
        # ensured gets a stable slot in one shared flattened stack
        # ([phi, combined(spec 0), combined(spec 1), ...], each slot
        # holding the fine nodes followed by the outer nodes), so
        # *every* ligand scored against this receptor gathers from the
        # same array -- the property the fused cross-ligand batch path
        # (:func:`~repro.scoring.scorers.score_pose_group`) relies on.
        # Slots are append-only; the stack is (re)assembled lazily in
        # :meth:`flat_stack`.
        self._slot: dict[tuple, int] = {}
        self._flat_stack: np.ndarray | None = None
        self._flat_slots = -1
        # H-bond receptor topology: full-length outward directions for
        # the pair corrections, plus the donor/acceptor subset the map
        # build iterates over.
        dirs_full = direction_vectors(receptor.coords, receptor.bonds)
        self.dirs_full = dirs_full
        self.iso_full = hb.isotropic(dirs_full)
        rel = np.flatnonzero(receptor.hbond_donor | receptor.hbond_acceptor)
        self._hrel = rel
        self._hdirs = dirs_full[rel]
        self._hiso = self.iso_full[rel]
        self._hdot = (self._hdirs * receptor.coords[rel]).sum(axis=1)
        #: ensure() passes that ran the build kernel / that took maps
        #: off the on-disk cache (:mod:`repro.scoring.fieldbuild`).
        self.build_count = 0
        self.load_count = 0

    # -- class topology ----------------------------------------------------
    def class_eligible(self, cls: tuple[bool, bool]) -> np.ndarray:
        """Positions *within the h-relevant subset* eligible for ``cls``.

        ``cls`` is the ligand-side (donor, acceptor) flag pair; a
        receptor atom is eligible iff (receptor donor and ligand
        acceptor) or (receptor acceptor and ligand donor) -- the same
        rule as :func:`repro.scoring.hbond.eligible_pairs_mask`.
        """
        don_l, acc_l = cls
        rec = self.receptor
        rel = self._hrel
        elig = np.zeros(rel.size, dtype=bool)
        if acc_l:
            elig |= rec.hbond_donor[rel].astype(bool)
        if don_l:
            elig |= rec.hbond_acceptor[rel].astype(bool)
        return np.flatnonzero(elig)

    # -- accessors ---------------------------------------------------------
    def nbytes(self) -> int:
        """Total map storage in bytes: both levels' maps, the
        clash-voxel table and the shared combined interpolation stack."""
        total = 0
        if self.phi is not None:
            total += self.phi.nbytes
        if self.near_mask is not None:
            total += self.near_mask.nbytes
            total += (
                self.cand_start.nbytes
                + self.cand_count.nbytes
                + self.cand_atoms.nbytes
            )
        for rep, disp in self._lj.values():
            total += rep.nbytes + disp.nbytes
        for arr in self._hb1210.values():
            total += arr.nbytes
        for rep, disp in self._hblj.values():
            total += rep.nbytes + disp.nbytes
        if self._flat_stack is not None:
            total += self._flat_stack.nbytes
        if self.outer is not None:
            total += self.outer.nbytes()
        return total

    def slot_of(self, spec: tuple) -> int:
        """Combined-stack slot of an ensured atom-type spec."""
        return self._slot[spec]

    @property
    def slot_stride(self) -> int:
        """Nodes per stack slot: the fine nodes, then the outer nodes
        (an outer node's in-slot id is ``n_nodes + its flat id``)."""
        return self.n_nodes + self.outer.n_nodes

    def locate(self, pts: np.ndarray):
        """Lattice coordinates of ``pts`` and the in-box mask."""
        frac = (pts - self.origin) * self.inv_spacing
        inside = (frac >= self.margin).all(axis=1) & (
            frac <= self.upper
        ).all(axis=1)
        return frac, inside

    def stencil(self, frac: np.ndarray):
        """Interpolation stencils of in-box lattice coordinates ``frac``.

        Returns ``(base, w)``: each row's first stencil node as an
        in-slot flat id (add :attr:`stencil_offs` for all
        ``support**3`` of them) and its ``(rows, support**3)`` tensor-
        product weights, x-major like ``stencil_offs``.  Elementwise in
        the rows, so a point's stencil is the same alone and inside
        any batch.
        """
        idx = np.floor(frac).astype(np.int64)
        # np.clip's bits without its Python-level overhead, which
        # every field score pays once per lattice level.
        np.maximum(idx, self.margin, out=idx)
        np.minimum(idx, self.max_idx, out=idx)
        base = (idx - self.margin) @ self.strides + self.slot_base
        return base, self.stencil_weights(frac - idx)

    def flat_stack(self) -> np.ndarray:
        """The flattened shared stack [phi, combined(slot 0), ...].

        Rebuilt (by re-deriving every slot from the stored component
        maps -- a pure, fixed-order float64 combination cast to the map
        dtype, so every rebuild is bitwise identical) whenever new
        specs have been ensured since the last assembly.  Slot ``1+s``
        holds spec ``s``'s full non-electrostatic clipped-field energy
        ``rep - disp + hb1210 - hb_rep + hb_disp``; slot 0 holds phi.
        Each slot is :attr:`slot_stride` long: the fine level's nodes
        followed by the outer level's.
        """
        nslots = len(self._slot)
        if self._flat_stack is not None and self._flat_slots == nslots:
            return self._flat_stack
        flat = np.empty(
            (1 + nslots) * self.slot_stride, dtype=self._np_dtype
        )
        rows = flat.reshape(1 + nslots, self.slot_stride)
        self._fill_slots(rows[:, : self.n_nodes], self._slot)
        self.outer._fill_slots(rows[:, self.n_nodes :], self._slot)
        self._flat_stack = flat
        self._flat_slots = nslots
        return flat

    def _fill_slots(self, rows: np.ndarray, slots: dict) -> None:
        """Write this level's phi and combined maps into stack ``rows``."""
        rows[0] = self.phi.reshape(-1)
        for spec, slot in slots.items():
            sig, eps, don, acc = spec
            rep, disp = self._lj[(sig, eps)]
            combined = rep.astype(np.float64) - disp
            cls = (don, acc)
            if (don or acc) and self.class_eligible(cls).size:
                combined += self._hb1210[cls]
                hrep, hdisp = self._hblj[((sig, eps), cls)]
                combined -= hrep
                combined += hdisp
            rows[1 + slot] = combined.reshape(-1)

    # -- construction ------------------------------------------------------
    def ensure(self, specs) -> bool:
        """Attach any maps missing for the given atom-type specs.

        ``specs`` is an iterable of ``(sigma, epsilon, donor,
        acceptor)`` tuples.  Returns True if any map was added.  Each
        missing map is loaded from the on-disk cache when it is there
        and built otherwise (:func:`~repro.scoring.fieldbuild.fill_maps`);
        either way its bits are a cold build's.  Map contents are
        independent of batching: a type built alone and one built
        alongside others yield bitwise-identical arrays (each
        accumulates from its own receptor-parameter vectors over the
        same node distances).  All or nothing: both levels are computed
        and loaded before either is written, and the specs get their
        stack slots only then, so a build that raises (an interrupt, a
        MemoryError) leaves the maps exactly as they were.
        """
        specs = list(specs)
        lj_keys = []
        for s in specs:
            key = (s[0], s[1])
            if key not in self._lj and key not in lj_keys:
                lj_keys.append(key)
        classes = []
        hb_pairs = []
        for s in specs:
            cls = (s[2], s[3])
            if not (cls[0] or cls[1]):
                continue
            if self.class_eligible(cls).size == 0:
                continue
            if cls not in self._hb1210 and cls not in classes:
                classes.append(cls)
            key = (s[0], s[1])
            pair = (key, cls)
            if pair not in self._hblj and pair not in hb_pairs:
                hb_pairs.append(pair)
        first = self.phi is None
        added = bool(first or lj_keys or classes or hb_pairs)
        if added:
            built, loaded = fill_maps(self, first, lj_keys, classes, hb_pairs)
            self.build_count += built
            self.load_count += loaded
        for s in specs:
            if s not in self._slot:
                self._slot[s] = len(self._slot)
        return added


class FieldScorer:
    """Two-regime hybrid scorer: interpolated fields, exact clash pairs.

    Built lazily on first use (under a "field-build" tracer span when a
    tracer is attached; map size lands in the ``scoring/field_bytes``
    gauge and the per-call exact-path atom fraction in
    ``scoring/near_field_fraction``).  Pass a prebuilt ``cells``
    :class:`FieldMaps` over the same receptor to share maps across
    ligands -- screening workers build one per receptor per worker.

    The hot path folds each ligand atom's full clipped-field energy
    into two interpolated lookups -- the shared ``phi`` map (times the
    atom charge) and a per-type *combined* map ``rep - disp + hb1210 -
    hb_rep + hb_disp`` assembled once per ligand from the stored
    component maps -- gathered for all atoms in a single fused fancy
    index over one flattened stack.  Overlapping pairs then add their
    exact-vs-clipped energy difference pairwise.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        spacing: float = DEFAULT_SPACING,
        padding: float = DEFAULT_PADDING,
        clash_radius: float = DEFAULT_CLASH_RADIUS,
        dtype: str = DEFAULT_DTYPE,
        *,
        cells: "FieldMaps | None" = None,
    ):
        if cells is not None:
            if not isinstance(cells, FieldMaps):
                raise TypeError(
                    "cells must be a prebuilt FieldMaps, got "
                    f"{type(cells).__name__}"
                )
            mismatched = [
                name
                for name, mine in (
                    ("spacing", float(spacing)),
                    ("padding", float(padding)),
                    ("clash_radius", float(clash_radius)),
                    ("dtype", str(dtype)),
                )
                if getattr(cells, name) != mine
            ]
            if mismatched:
                raise ValueError(
                    "prebuilt FieldMaps parameters differ from the "
                    f"scorer's for: {', '.join(mismatched)}"
                )
            self._maps = cells
        else:
            self._maps = self.receptor_cache(
                receptor, spacing, padding, clash_radius, dtype
            )
        self.receptor = receptor
        self.ligand = ligand
        self.spacing = self._maps.spacing
        self.padding = self._maps.padding
        self.clash_radius = self._maps.clash_radius
        self.dtype = self._maps.dtype
        self._kernel = Eq1Kernel(receptor, ligand)
        self._specs, spec_ids = _atom_type_specs(ligand)
        self._charges = np.asarray(ligand.charges, dtype=float)
        self._spec_ids = spec_ids
        # Built lazily: per-atom flat offsets of each atom's combined
        # map slot in the shared stack (slot 0 is phi, slot 1+g is type
        # g's combined map), plus views of the stack / the flattened
        # near mask.
        self._foff: np.ndarray | None = None
        self._flat: np.ndarray | None = None
        self._near_flat: np.ndarray | None = None
        self._tracer = None
        self._metrics = None
        #: Exact-path atom fraction of the most recent evaluation
        #: (atoms with overlapping pairs or outside both boxes).
        self.near_fraction = 0.0
        #: Outer-level (shell) atom fraction of the most recent
        #: evaluation.
        self.outer_fraction = 0.0

    @classmethod
    def receptor_cache(
        cls,
        receptor: Molecule,
        spacing: float = DEFAULT_SPACING,
        padding: float = DEFAULT_PADDING,
        clash_radius: float = DEFAULT_CLASH_RADIUS,
        dtype: str = DEFAULT_DTYPE,
    ) -> FieldMaps:
        """The (unbuilt) field maps every ligand's scorer can share.

        Takes the scorer's config kwargs and returns what ``__init__``
        creates for itself when ``cells`` is None -- screening workers
        hold one per receptor and pass it to every ligand's scorer;
        maps grow lazily per distinct ligand atom type.
        """
        return FieldMaps(
            receptor,
            spacing=spacing,
            padding=padding,
            clash_radius=clash_radius,
            dtype=dtype,
        )

    # -- telemetry ---------------------------------------------------------
    @property
    def tracer(self):
        """Optional :class:`~repro.telemetry.spans.SpanTracer`."""
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value

    @property
    def metrics(self):
        """Optional :class:`~repro.telemetry.metrics.MetricsRegistry`."""
        return self._metrics

    @metrics.setter
    def metrics(self, value) -> None:
        self._metrics = value
        self._publish_size()

    def _publish_size(self) -> None:
        if self._metrics is not None and self._foff is not None:
            self._metrics.set(
                FIELD_BYTES_METRIC, float(self._maps.nbytes())
            )
            self._metrics.set(
                FIELD_LOADS_METRIC, float(self._maps.load_count)
            )

    # -- lazy build --------------------------------------------------------
    @property
    def maps(self) -> FieldMaps:
        """The shared field maps, built for this ligand on first access."""
        self._ensure_built()
        return self._maps

    def _ensure_built(self) -> None:
        maps = self._maps
        if self._foff is None:
            if self._tracer is not None:
                with self._tracer.span("field-build"):
                    maps.ensure(self._specs)
                    self._bind_stack()
            else:
                maps.ensure(self._specs)
                self._bind_stack()
            self._publish_size()
            return
        # Another ligand sharing these maps may have ensured new specs
        # since we last bound: the shared stack is reassembled then (our
        # slots' contents are unchanged -- slots are append-only and
        # each slot is a pure function of its own component maps), so
        # just rebind the view.
        flat = maps.flat_stack()
        if flat is not self._flat:
            self._flat = flat
            self._publish_size()

    def _bind_stack(self) -> None:
        """Bind per-atom offsets into the shared combined map stack.

        Stack slot 0 holds phi; slot ``1 + slot_of(spec)`` holds that
        spec's full non-electrostatic clipped-field energy.  The stack
        lives on :class:`FieldMaps` (one array per receptor, shared by
        every ligand) and each slot is combined in float64 in a fixed
        order then cast to the map dtype -- a pure function of the
        stored maps, so warm == cold bitwise.
        """
        maps = self._maps
        slots = np.array(
            [maps.slot_of(s) for s in self._specs], dtype=np.int64
        )
        self._foff = (slots[self._spec_ids] + 1) * maps.slot_stride
        self._flat = maps.flat_stack()
        self._near_flat = maps.near_mask.reshape(-1)

    # -- scoring -----------------------------------------------------------
    def _record(self, near: float, outer: float) -> None:
        """Publish one evaluation's exact-path / shell atom fractions."""
        self.near_fraction = near
        self.outer_fraction = outer
        if self._metrics is not None:
            self._metrics.observe(NEAR_FRACTION_METRIC, near)
            self._metrics.observe(OUTER_FRACTION_METRIC, outer)

    def _exact_energy(self, lig: np.ndarray, ex: np.ndarray) -> float:
        """Full Eq. 1 column energy for out-of-box ligand atoms: the
        exact scorer's kernel restricted to columns ``ex``."""
        e_el, e_lj, e_hb = self._kernel.terms(lig, ex)
        return e_el + e_lj + e_hb

    def score(self, coords: np.ndarray) -> float:
        """Score of one pose: the k = 1 case of the fused kernel."""
        m = self.ligand.n_atoms
        lig = as_pose(coords, m)
        self._ensure_built()
        scores, near, outer = _fused_scores([self], lig, [m])
        self._record(near[0], outer[0])
        return scores[0]

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray:
        """Scores for (k, m, 3) poses; bitwise-equal per entry to
        :meth:`score`.

        Pose-major fused path: per chunk of poses, one stencil gather
        per lattice level over the shared stack covers every in-box
        atom of every pose, the voxel CSR candidate table is expanded
        across all flagged atoms at once, and only the per-pose scalar
        reductions (contiguous-slice einsums, rare exact columns, pair
        corrections) remain in Python.  :meth:`score` runs the same
        kernel on one pose, and a pose's floats do not depend on the
        rest of its batch (see ``_fused_scores``), so entries are
        bitwise identical to sequential single-pose calls.
        ``near_fraction`` / ``outer_fraction`` end at the last pose's
        values and their histograms observe one value per pose, exactly
        as sequential calls would.
        """
        m = self.ligand.n_atoms
        cb = as_pose_batch(coords_batch, m)
        k = cb.shape[0]
        out = np.empty(k)
        if k == 0:
            return out
        self._ensure_built()
        # Chunk so the (2*rows, 8) stencil/weight temporaries stay a few
        # MB (see docs/PERFORMANCE.md "Batched pose evaluation").
        step = max(1, _BATCH_CHUNK_ROWS // max(1, m))
        for s in range(0, k, step):
            e = min(s + step, k)
            scores, near, outer = _fused_scores(
                [self] * (e - s), cb[s:e].reshape(-1, 3), [m] * (e - s)
            )
            out[s:e] = scores
            for f, g in zip(near, outer):
                self._record(f, g)
        return out


#: Ligand-atom rows per fused chunk in :meth:`FieldScorer.score_batch`:
#: bounds the (2*rows, 8) float64 stencil-value + weight temporaries of
#: fine-level rows to ~4 MB (shell rows are 64 wide: at most 8x that).
_BATCH_CHUNK_ROWS = 16384


def _level_rows(level, flat, frac, rows, starts, foff_rows, ch_rows):
    """Gathered stencil values and weights of ``rows`` on ``level``.

    ``rows`` (ascending row ids into the fused batch, so grouped by
    pose; pose ``i`` owns rows ``starts[i]:starts[i + 1]``) are the
    atoms interpolated on ``level``; ``frac`` their lattice
    coordinates.  One gather pulls every stencil node of the phi slot
    and of each atom's type slot; the ligand charge folds into the phi
    weights, so one reduction per pose yields the level's total.
    Returns ``(values, w, at, base)``: ``values`` / ``w`` are shaped
    ``(2, rows, support**3)`` (phi rows, then type rows) and ``at``
    lists the per-pose bounds into ``rows``, so pose ``i``'s energy on
    this level reduces ``values[:, at[i]:at[i + 1]]``.
    """
    base, w1 = level.stencil(frac)
    n = rows.size
    lin = np.empty(2 * n, dtype=np.int64)
    lin[:n] = base
    lin[n:] = base + foff_rows.take(rows)
    values = flat.take(lin[:, None] + level.stencil_offs)
    w = np.empty(values.shape)
    np.multiply(w1, ch_rows.take(rows)[:, None], out=w[:n])
    w[n:] = w1
    at = rows.searchsorted(starts).tolist()
    return values.reshape(2, n, -1), w.reshape(2, n, -1), at, base


def _fused_scores(scorers, pts, sizes):
    """Field evaluation of ``len(sizes)`` poses in one fused pass.

    ``scorers[i]`` scores the pose occupying rows
    ``starts[i]:starts[i]+sizes[i]`` of ``pts`` (float64 ``(R, 3)``).
    All scorers must share one built :class:`FieldMaps` (they gather
    from its shared flat stack -- their per-atom slot offsets address
    it directly, which is what lets heterogeneous ligands fuse).
    :meth:`FieldScorer.score` is the ``k = 1`` case.

    Returns the lists ``(scores, near_fracs, outer_fracs)``; entry
    ``i`` is a function of pose ``i`` alone, bit for bit, whatever else
    shares the call: the batched stages are elementwise or per-row,
    while every floating-point *reduction* -- the per-level stencil
    einsums, the exact-column energy, the pair-correction sum -- runs
    per pose over a contiguous slice laid out as if the pose were
    alone, in one accumulation order (fine level, outer level,
    out-of-box columns, pair corrections).
    """
    k = len(sizes)
    # Per-pose boundaries ("at" lists) are Python lists for the loop at
    # the end: pose i's part of a pose-grouped array is [at[i], at[i+1]).
    starts_at = [0, *itertools.accumulate(sizes)]
    starts = np.array(starts_at, dtype=np.int64)
    s0 = scorers[0]
    maps = s0._maps
    flat = maps.flat_stack()
    foff_rows = np.concatenate([sc._foff for sc in scorers])
    ch_rows = np.concatenate([sc._charges for sc in scorers])
    beyond_at = shell_at = pair_at = uniq_at = [0] * (k + 1)
    # (values, weights, at) per level that has rows, fine level first.
    levels = []
    frac, fine = maps.locate(pts)
    fi = fine.nonzero()[0]
    if fi.size:
        values, w, at, base_fi = _level_rows(
            maps, flat, frac if fi.size == fine.size else frac[fi], fi,
            starts, foff_rows, ch_rows,
        )
        levels.append((values, w, at))
        # CSR expansion of the voxel candidate lists of every flagged
        # atom (a flagged voxel lists >= 1 atom), then an exact
        # distance check keeps the true overlaps.
        nz = s0._near_flat.take(base_fi).nonzero()[0]
        if nz.size:
            vox = base_fi[nz]
            counts = maps.cand_count[vox].astype(np.int64)
            cum = np.zeros(counts.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=cum[1:])
            rank = np.arange(int(counts.sum()), dtype=np.int64)
            rank -= np.repeat(cum, counts)
            rank += np.repeat(maps.cand_start[vox], counts)
            cand = maps.cand_atoms.take(rank).astype(np.int64)
            lig_rows = np.repeat(fi[nz], counts)
            diff = maps.receptor.coords.take(cand, axis=0)
            diff -= pts.take(lig_rows, axis=0)
            d2 = np.einsum("ij,ij->i", diff, diff)
            keep = d2 <= maps.clash_radius * maps.clash_radius
            if keep.any():
                pair_rec = np.compress(keep, cand)
                pair_row = np.compress(keep, lig_rows)
                pair_e = _pair_energies(
                    scorers, maps, pts, pair_rec, pair_row, ch_rows
                )
                pair_at = pair_row.searchsorted(starts).tolist()
                # Corrected ligand atoms per pose (the near-fraction
                # numerator): pair_row is non-decreasing, so its first
                # occurrences are the distinct rows.
                first = np.empty(pair_row.size, dtype=bool)
                first[0] = True
                np.not_equal(pair_row[1:], pair_row[:-1], out=first[1:])
                uniq_at = pair_row[first].searchsorted(starts).tolist()
    if fi.size < fine.size:
        # Only atoms that left the fine box are located on the outer
        # level; the rare ones beyond it take exact receptor columns.
        rest = (~fine).nonzero()[0]
        frac_o, in_outer = maps.outer.locate(pts.take(rest, axis=0))
        shell, beyond = rest[in_outer], rest[~in_outer]
        beyond_at = beyond.searchsorted(starts).tolist()
        if shell.size:
            values, w, shell_at, _ = _level_rows(
                maps.outer, flat, frac_o[in_outer], shell,
                starts, foff_rows, ch_rows,
            )
            levels.append((values, w, shell_at))
    scores, near_fracs, outer_fracs = [], [], []
    for i in range(k):
        energy = 0.0
        for values, w, at in levels:
            lo, hi = at[i], at[i + 1]
            if hi > lo:
                # The pose's phi rows then its type rows as one
                # contiguous block: a view when the pose owns every row
                # of the level (always for a single pose), else a copy.
                nrows = 2 * (hi - lo)
                energy += float(
                    np.einsum(
                        "pc,pc->",
                        values[:, lo:hi].reshape(nrows, -1),
                        w[:, lo:hi].reshape(nrows, -1),
                    )
                )
        b0, b1 = beyond_at[i], beyond_at[i + 1]
        n_ex = b1 - b0
        if n_ex:
            lo, hi = starts_at[i], starts_at[i + 1]
            energy += scorers[i]._exact_energy(
                pts[lo:hi], beyond[b0:b1] - lo
            )
        p0, p1 = pair_at[i], pair_at[i + 1]
        if p1 > p0:
            energy += float(pair_e[p0:p1].sum())
            n_ex += uniq_at[i + 1] - uniq_at[i]
        scores.append(-energy)
        near_fracs.append(n_ex / sizes[i])
        outer_fracs.append((shell_at[i + 1] - shell_at[i]) / sizes[i])
    return scores, near_fracs, outer_fracs


def _pair_energies(scorers, maps, pts, pair_rec, pair_row, ch_rows):
    """Per-pair exact-vs-clipped Eq. 1 corrections of overlapping pairs.

    For each kept (receptor, ligand-row) pair of the fused batch the
    clipped-kernel contribution (what the maps tabulated, same
    conventions as the build kernel) is subtracted and the exact-path
    energy at the MIN_DISTANCE-clamped true distance added -- so clash
    terms come out exact while the interpolated total needs no
    per-atom branching.  Per-pair values are independent of batch
    composition; ligand-side parameters are gathered through
    concatenated per-scorer rows, which is what lets heterogeneous
    ligands share the batch.
    """
    rec = maps.receptor
    sig_rows = np.concatenate([sc.ligand.sigma for sc in scorers])
    eps_rows = np.concatenate([sc.ligand.epsilon for sc in scorers])
    don_rows = np.concatenate([sc.ligand.hbond_donor for sc in scorers])
    acc_rows = np.concatenate([sc.ligand.hbond_acceptor for sc in scorers])
    u = pts[pair_row] - rec.coords[pair_rec]
    r = np.sqrt((u * u).sum(axis=1))
    r_md = np.maximum(r, MIN_DISTANCE)
    r_c = np.maximum(r, maps.clip_radius)
    inv_md = 1.0 / r_md
    inv_c = 1.0 / r_c
    # Electrostatics: k q_j q_i (1/r_exact - 1/r_clip).
    e = (
        COULOMB_CONSTANT
        * rec.charges[pair_rec]
        * ch_rows[pair_row]
        * (inv_md - inv_c)
    )
    # Lennard-Jones, arithmetic-sigma Lorentz-Berthelot.
    sig = 0.5 * (rec.sigma[pair_rec] + sig_rows[pair_row])
    epsp = 4.0 * np.sqrt(rec.epsilon[pair_rec] * eps_rows[pair_row])
    s6 = sig**6
    w12 = epsp * s6 * s6
    w6 = epsp * s6
    i6_md = inv_md**6
    i6_c = inv_c**6
    lj_md = w12 * (i6_md * i6_md) - w6 * i6_md
    lj_c = w12 * (i6_c * i6_c) - w6 * i6_c
    e += lj_md - lj_c
    # H-bond correction on eligible pairs: replace the clipped
    # cos/(1-sin)-weighted terms with the exact-path ones.
    elig = (rec.hbond_donor[pair_rec] & acc_rows[pair_row]) | (
        rec.hbond_acceptor[pair_rec] & don_rows[pair_row]
    )
    if elig.any():
        sel = np.flatnonzero(elig)
        ri = pair_rec[sel]
        dirs = maps.dirs_full[ri]
        dot = (dirs * u[sel]).sum(axis=1)
        # Exact-path angular convention (hbond_angle_factors): unit
        # vector at the true distance, 1e-9 floor.
        cos_e = dot / np.maximum(r[sel], 1e-9)
        cos_e[maps.iso_full[ri]] = 1.0
        np.clip(cos_e, 0.0, 1.0, out=cos_e)
        sin_e = np.sqrt(np.maximum(0.0, 1.0 - cos_e * cos_e))
        # Map-side angular convention: normalized by the clipped
        # distance (see the build kernel in repro.scoring.fieldbuild).
        cos_c = dot * inv_c[sel]
        cos_c[maps.iso_full[ri]] = 1.0
        np.clip(cos_c, 0.0, 1.0, out=cos_c)
        sin_c = np.sqrt(np.maximum(0.0, 1.0 - cos_c * cos_c))
        c_hb, d_hb = hb.hbond_coefficients()
        i10_md = i6_md[sel] * inv_md[sel] ** 4
        i10_c = i6_c[sel] * inv_c[sel] ** 4
        e1210_md = c_hb * (i10_md * inv_md[sel] ** 2) - d_hb * i10_md
        e1210_c = c_hb * (i10_c * inv_c[sel] ** 2) - d_hb * i10_c
        corr = cos_e * e1210_md - (1.0 - sin_e) * lj_md[sel]
        corr -= cos_c * e1210_c - (1.0 - sin_c) * lj_c[sel]
        e[sel] += corr
    return e
