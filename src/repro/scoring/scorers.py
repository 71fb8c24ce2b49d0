"""Pluggable pose scorers: the Eq. 1 oracle, production, one neighbour list.

The engine needs "coordinates -> score" with different speed/accuracy
trades (the GPU METADOCK plays the same game with spot-local windows):

- :class:`ExactScorer` ("exact") -- full Eq. 1 over all pairs (the
  default and the correctness oracle);
- ``FieldScorer`` ("field") -- hybrid per-ligand-type field maps with an
  exact near-field/out-of-box path (near-exact and the production
  kernel; see :mod:`repro.scoring.field`);
- ``IncrementalScorer`` ("incremental") -- Eq. 1 truncated at ``cutoff``
  over a cached Verlet pair list (fast but truncating; see
  :mod:`repro.scoring.incremental`), with the stateless
  :class:`CutoffScorer` ("cutoff") kept as the reference its drift
  bound is pinned against.

All scorers share the one-pose ``score(coords)`` and many-pose
``score_batch(coords_batch)`` interface; every ``score_batch`` entry is
bitwise-equal to the single-pose call.  Scorers that keep a
receptor-side structure (a cell list, field maps) build it through
their ``receptor_cache`` classmethod -- :func:`receptor_cache` is the
by-name front door -- and accept a prebuilt one through ``cells=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, DEFAULT_CUTOFF, MIN_DISTANCE
from repro.scoring import hbond as hb
from repro.scoring.composite import Eq1Kernel, as_pose, as_pose_batch
from repro.scoring.field import FieldScorer, score_field_group
from repro.scoring.incremental import IncrementalScorer
from repro.scoring.neighborlist import CellList, query_pairs
from repro.scoring.pairwise import direction_vectors


class PoseScorer(Protocol):
    """Coordinates -> METADOCK score (higher = better)."""

    def score(self, coords: np.ndarray) -> float: ...

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray: ...


class ExactScorer:
    """Full Eq. 1 over all receptor x ligand pairs.

    Everything pose-independent -- receptor geometry, charges, combined
    LJ matrices, the H-bond block -- is snapshotted **once** here and
    every call runs this instance's :class:`Eq1Kernel` over it.  The
    snapshot is the only receptor the scorer reads: writing to
    ``receptor.coords`` afterwards does not move a score (as with
    ``FieldMaps`` and ``CellList``); build a new scorer instead.
    """

    def __init__(self, receptor: Molecule, ligand: Molecule):
        self.receptor = receptor
        self.ligand = ligand
        self._kernel = Eq1Kernel(receptor, ligand)

    def score(self, coords: np.ndarray) -> float:
        return self._kernel.score(as_pose(coords, self.ligand.n_atoms))

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray:
        cb = as_pose_batch(coords_batch, self.ligand.n_atoms)
        return np.array([self._kernel.score(pose) for pose in cb])


class CutoffScorer:
    """Eq. 1 truncated to receptor atoms within ``cutoff`` of any ligand atom.

    The receptor is put in cell-sorted order once; each evaluation
    touches O(ligand x local-density) pairs instead of all n x m.

    ``shifted=True`` (default) uses the energy-shifted Coulomb form
    ``k q_i q_j (1/r - 1/Rc)``, which is continuous at the cutoff.  With
    sharp truncation, shells of like-charged receptor atoms enter the
    sum discontinuously as the cutoff grows and the error is large and
    non-monotone on inhomogeneously charged receptors (measured in the
    scorer bench); the shifted form converges smoothly.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        cutoff: float = DEFAULT_CUTOFF,
        *,
        shifted: bool = True,
        cells: CellList | None = None,
    ):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.receptor = receptor
        self.ligand = ligand
        self.cutoff = float(cutoff)
        self.shifted = bool(shifted)
        self._cells = (
            cells
            if cells is not None
            else self.receptor_cache(receptor, cutoff)
        )
        self._dirs = direction_vectors(receptor.coords, receptor.bonds)
        self._mask_full = hb.eligible_pairs_mask(
            receptor.hbond_donor,
            receptor.hbond_acceptor,
            ligand.hbond_donor,
            ligand.hbond_acceptor,
        )

    @classmethod
    def receptor_cache(
        cls,
        receptor: Molecule,
        cutoff: float = DEFAULT_CUTOFF,
        **_pair_kwargs,
    ) -> CellList:
        """The receptor cell list every ligand's scorer can share.

        Takes the scorer's config kwargs (those that only shape the
        per-pair arithmetic are ignored) and returns what ``__init__``
        builds for itself when ``cells`` is None -- screening workers
        sort the receptor once and pass it to every ligand's scorer.
        The bin edge ``cutoff / 2`` only fixes the canonical pair order
        (hence the summation order); query cost and pair membership do
        not depend on it.
        """
        return CellList(receptor.coords, cell_size=cutoff / 2.0)

    def _score_pose(self, lig: np.ndarray) -> float:
        if not np.isfinite(lig).all():
            # No pair is "in range" of a NaN: without this the pose
            # would score 0.0 and outrank every clash.
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

    def score(self, coords: np.ndarray) -> float:
        return self._score_pose(as_pose(coords, self.ligand.n_atoms))

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray:
        """Sequential loop over the single-pose body: bitwise-equal to
        :meth:`score` per entry by construction."""
        cb = as_pose_batch(coords_batch, self.ligand.n_atoms)
        out = np.empty(cb.shape[0])
        for i, lig in enumerate(cb):
            out[i] = self._score_pose(lig)
        return out


def score_pose_group(entries) -> np.ndarray:
    """Score one ``(scorer, coords)`` pose per entry, fusing where possible.

    The cross-ligand batching front door used by the screening rollout:
    entries whose scorer is a :class:`~repro.scoring.field.FieldScorer`
    are routed through :func:`~repro.scoring.field.score_field_group`
    (one fused gather per shared :class:`FieldMaps`, covering
    heterogeneous ligands against one receptor); every other scorer
    falls back to its single-pose ``score()``.  Entry ``i``'s result is
    bitwise-equal to ``entries[i][0].score(entries[i][1])``, including
    scorer-side telemetry, evaluated in entry order within each path.
    """
    entries = list(entries)
    out = np.empty(len(entries))
    field_idx = []
    for i, (scorer, coords) in enumerate(entries):
        if isinstance(scorer, FieldScorer):
            field_idx.append(i)
        else:
            out[i] = scorer.score(coords)
    if field_idx:
        fused = score_field_group([entries[i] for i in field_idx])
        for j, i in enumerate(field_idx):
            out[i] = fused[j]
    return out


@dataclass(frozen=True)
class ScorerEntry:
    """One registered scoring method: factory + declared kwargs.

    ``kwargs`` maps each accepted keyword to its allowed value types;
    ``runtime_only`` names kwargs that are legal when constructing a
    scorer in-process (shared in-memory caches) but meaningless in a
    JSON config.
    """

    factory: Callable[..., PoseScorer]
    kwargs: Mapping[str, tuple[type, ...]] = field(default_factory=dict)
    runtime_only: frozenset[str] = frozenset()


_NUMBER = (int, float)

#: Method name -> :class:`ScorerEntry`; the single source of truth for
#: valid ``scoring_method`` / ``scoring_kwargs`` combinations.
SCORER_REGISTRY: dict[str, ScorerEntry] = {
    "exact": ScorerEntry(factory=ExactScorer),
    "cutoff": ScorerEntry(
        factory=CutoffScorer,
        kwargs={
            "cutoff": _NUMBER,
            "shifted": (bool,),
            "cells": (object,),
        },
        runtime_only=frozenset({"cells"}),
    ),
    "incremental": ScorerEntry(
        factory=IncrementalScorer,
        kwargs={
            "cutoff": _NUMBER,
            "skin": _NUMBER,
            "shifted": (bool,),
            "cells": (object,),
        },
        runtime_only=frozenset({"cells"}),
    ),
    "field": ScorerEntry(
        factory=FieldScorer,
        kwargs={
            "spacing": _NUMBER,
            "padding": _NUMBER,
            "clash_radius": _NUMBER,
            "dtype": (str,),
            "cells": (object,),
        },
        runtime_only=frozenset({"cells"}),
    ),
}

#: Valid ``make_scorer`` / config ``scoring_method`` strings.
SCORING_METHODS: tuple[str, ...] = tuple(SCORER_REGISTRY)


def validate_scoring_kwargs(
    method: str,
    kwargs: Mapping[str, Any],
    *,
    allow_runtime: bool = False,
) -> None:
    """Check ``scoring_kwargs`` against the registry; raise on misuse.

    Called from ``DQNDockingConfig.__post_init__`` (``allow_runtime``
    False -- a typo or a runtime-only kwarg in a run config fails at
    construction, not deep inside a worker) and from
    :func:`make_scorer` (``allow_runtime`` True).
    """
    entry = SCORER_REGISTRY.get(method)
    if entry is None:
        hint = (
            '; "grid" was removed -- use "field", which supersedes it '
            "on speed and accuracy"
            if method == "grid"
            else ""
        )
        raise ValueError(
            f"unknown scoring method {method!r}; "
            f"choose from {SCORING_METHODS}{hint}"
        )
    for name, value in kwargs.items():
        allowed = entry.kwargs.get(name)
        if allowed is None:
            valid = ", ".join(sorted(entry.kwargs)) or "none"
            raise ValueError(
                f"scoring method {method!r} accepts no kwarg {name!r} "
                f"(valid: {valid})"
            )
        if name in entry.runtime_only:
            if not allow_runtime:
                raise ValueError(
                    f"scoring kwarg {name!r} is runtime-only (a shared "
                    "in-memory cache) and cannot appear in a config's "
                    "scoring_kwargs"
                )
            continue
        if not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed
        ):
            expected = "/".join(t.__name__ for t in allowed)
            raise ValueError(
                f"scoring kwarg {name!r} for method {method!r} must be "
                f"{expected}, got {type(value).__name__} ({value!r})"
            )


def make_scorer(
    method: str,
    receptor: Molecule,
    ligand: Molecule,
    **kwargs,
) -> PoseScorer:
    """Scorer factory keyed by config string (thin registry shim)."""
    validate_scoring_kwargs(method, kwargs, allow_runtime=True)
    return SCORER_REGISTRY[method].factory(receptor, ligand, **kwargs)


def receptor_cache(method: str, receptor: Molecule, **kwargs):
    """The receptor-side cache the scorers of ``method`` can share.

    Built by the scorer class itself from the same config ``kwargs``
    :func:`make_scorer` takes -- exactly what each scorer would build
    privately -- so passing it back as ``cells=`` for every ligand
    scored against ``receptor`` changes no float.  None for a method
    that keeps no receptor-side structure.
    """
    validate_scoring_kwargs(method, kwargs)
    build = getattr(SCORER_REGISTRY[method].factory, "receptor_cache", None)
    return None if build is None else build(receptor, **kwargs)
