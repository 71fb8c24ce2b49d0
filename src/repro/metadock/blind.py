"""Blind docking: independent pose searches over every surface spot.

BINDSURF/METADOCK's headline mode assumes *no* prior knowledge of the
binding site: the protein surface is decomposed into spots
(:mod:`repro.metadock.spots`) and an independent optimization runs at
each -- embarrassingly parallel, which is exactly why the paper's group
built it on GPUs.  Here each spot search is a process-pool task; results
are merged into a ranked list of candidate sites.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.chem.builders import BuiltComplex
from repro.metadock.engine import MetadockEngine
from repro.metadock.metaheuristic import (
    MetaheuristicParams,
    MetaheuristicSchema,
)
from repro.metadock.pose import Pose
from repro.metadock.spots import Spot, surface_spots
from repro.metadock.strategies import STRATEGY_PRESETS
from repro.utils.rng import RngFactory


def default_workers() -> int:
    """Worker count: physical-ish core count, capped for test machines."""
    return max(1, min(8, (os.cpu_count() or 2)))


@dataclass(frozen=True)
class SpotResult:
    """Best pose found at one surface spot."""

    spot_index: int
    best_score: float
    best_pose: Pose
    evaluations: int
    #: Distance from the found pose to the true pocket center (known for
    #: synthetic complexes; lets benches verify blind docking finds it).
    pocket_distance: float


@dataclass
class BlindDockingResult:
    """All spot results, ranked by score (best first)."""

    spots: list[SpotResult]
    total_evaluations: int

    @property
    def best(self) -> SpotResult:
        """The overall winner."""
        return self.spots[0]

    def summary(self) -> str:
        """Ranked table of candidate binding sites."""
        from repro.utils.tables import render_table

        rows = [
            (
                r.spot_index,
                f"{r.best_score:.2f}",
                f"{r.pocket_distance:.1f}",
                r.evaluations,
            )
            for r in self.spots
        ]
        return render_table(
            ["spot", "best score", "dist to pocket (A)", "evals"],
            rows,
            title=(
                f"Blind docking ({len(self.spots)} spots, "
                f"{self.total_evaluations} evaluations)"
            ),
            align=["r", "r", "r", "r"],
        )


def _search_spot(task) -> tuple[int, float, np.ndarray, int]:
    """Pool worker: one spot's metaheuristic search (module-level for
    pickling).  Returns primitives to keep the IPC payload small."""
    built, spot_index, center, radius, params, seed = task
    engine = MetadockEngine(built)
    schema = MetaheuristicSchema(
        engine,
        params,
        seed=seed,
        search_center=center,
        search_radius=radius,
    )
    result = schema.run()
    return (
        spot_index,
        result.best_score,
        result.best_pose.to_vector(),
        result.evaluations,
    )


def blind_dock(
    built: BuiltComplex,
    *,
    n_spots: int = 12,
    strategy: str = "local",
    budget_per_spot: int = 200,
    seed: int = 0,
    n_workers: int | None = None,
) -> BlindDockingResult:
    """Run an independent search at every surface spot; rank the sites.

    Deterministic in ``seed`` regardless of worker count or scheduling
    (each spot gets its own derived seed).
    """
    spots: list[Spot] = surface_spots(built.receptor, n_spots)
    try:
        params: MetaheuristicParams = STRATEGY_PRESETS[strategy](
            budget_per_spot
        )
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; options "
            f"{sorted(STRATEGY_PRESETS)}"
        ) from None
    seeds = RngFactory(seed).seeds("blind-docking", len(spots))
    lig_radius = built.ligand_crystal.bounding_radius()
    tasks = [
        (
            built,
            k,
            s.center,
            s.radius + lig_radius,
            params,
            seeds[k],
        )
        for k, s in enumerate(spots)
    ]
    workers = default_workers() if n_workers is None else int(n_workers)
    if workers <= 1 or len(tasks) <= 1:
        raw = [_search_spot(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_search_spot, tasks))

    n_torsions = 0  # blind docking runs the rigid engine
    pocket = built.pocket_center
    results = []
    for spot_index, score, pose_vec, evals in raw:
        pose = Pose.from_vector(pose_vec, n_torsions)
        results.append(
            SpotResult(
                spot_index=spot_index,
                best_score=float(score),
                best_pose=pose,
                evaluations=int(evals),
                pocket_distance=float(
                    np.linalg.norm(pose.translation - pocket)
                ),
            )
        )
    results.sort(key=lambda r: r.best_score, reverse=True)
    return BlindDockingResult(
        spots=results,
        total_evaluations=sum(r.evaluations for r in results),
    )
