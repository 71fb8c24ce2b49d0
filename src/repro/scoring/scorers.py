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
  :mod:`repro.scoring.incremental`); "cutoff" is the same class with
  the skin fixed at 0, the stateless cutoff scorer.

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
from repro.scoring.composite import Eq1Kernel, as_pose, as_pose_batch
from repro.scoring.field import FieldScorer, _fused_scores
from repro.scoring.incremental import IncrementalScorer


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


def score_pose_group(entries) -> np.ndarray:
    """Score one ``(scorer, coords)`` pose per entry, fusing where possible.

    The cross-ligand batching front door used by the screening rollout.
    Entries whose scorer is a :class:`~repro.scoring.field.FieldScorer`
    are grouped by their shared :class:`~repro.scoring.field.FieldMaps`
    and each group runs one fused kernel over the maps' combined stack,
    so the ligands of a shard -- heterogeneous atom counts and types --
    batch into a single gather against one receptor; every other scorer
    is evaluated through its single-pose ``score()``.  Entry ``i``'s
    result is bitwise-equal to ``entries[i][0].score(entries[i][1])``,
    including scorer-side telemetry (``near_fraction`` /
    ``outer_fraction`` and their histograms), evaluated in entry order
    within each path.
    """
    entries = list(entries)
    out = np.empty(len(entries))
    groups: dict[int, list[tuple[int, FieldScorer, np.ndarray]]] = {}
    for i, (scorer, coords) in enumerate(entries):
        if isinstance(scorer, FieldScorer):
            lig = as_pose(coords, scorer.ligand.n_atoms)
            scorer._ensure_built()
            groups.setdefault(id(scorer._maps), []).append((i, scorer, lig))
        else:
            out[i] = scorer.score(coords)
    for group in groups.values():
        idxs, scorers, ligs = zip(*group)
        scores, near, outer = _fused_scores(
            scorers,
            np.concatenate(ligs, axis=0),
            [sc.ligand.n_atoms for sc in scorers],
        )
        out[list(idxs)] = scores
        for sc, f, g in zip(scorers, near, outer):
            sc._record(f, g)
    return out


@dataclass(frozen=True)
class ScorerEntry:
    """One registered scoring method: factory + declared kwargs.

    ``kwargs`` maps each accepted keyword to its allowed value types;
    ``cells`` (a shared in-memory receptor cache) is legal when
    constructing a scorer in-process but meaningless in a JSON config.
    ``fixed`` holds keywords the entry passes to the factory and its
    ``receptor_cache`` itself, which callers cannot set.
    """

    factory: Callable[..., PoseScorer]
    kwargs: Mapping[str, tuple[type, ...]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)


_NUMBER = (int, float)

#: Method name -> :class:`ScorerEntry`; the single source of truth for
#: valid ``scoring_method`` / ``scoring_kwargs`` combinations.
SCORER_REGISTRY: dict[str, ScorerEntry] = {
    "exact": ScorerEntry(factory=ExactScorer),
    # The stateless cutoff scorer: a Verlet list with no skin.
    "cutoff": ScorerEntry(
        factory=IncrementalScorer,
        kwargs={
            "cutoff": _NUMBER,
            "shifted": (bool,),
            "cells": (object,),
        },
        fixed={"skin": 0.0},
    ),
    "incremental": ScorerEntry(
        factory=IncrementalScorer,
        kwargs={
            "cutoff": _NUMBER,
            "skin": _NUMBER,
            "shifted": (bool,),
            "cells": (object,),
        },
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
        if name == "cells":
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
    entry = SCORER_REGISTRY[method]
    return entry.factory(receptor, ligand, **entry.fixed, **kwargs)


def receptor_cache(method: str, receptor: Molecule, **kwargs):
    """The receptor-side cache the scorers of ``method`` can share.

    Built by the scorer class itself from the same config ``kwargs``
    :func:`make_scorer` takes -- exactly what each scorer would build
    privately -- so passing it back as ``cells=`` for every ligand
    scored against ``receptor`` changes no float.  None for a method
    that keeps no receptor-side structure.
    """
    validate_scoring_kwargs(method, kwargs)
    entry = SCORER_REGISTRY[method]
    build = getattr(entry.factory, "receptor_cache", None)
    return None if build is None else build(receptor, **entry.fixed, **kwargs)
