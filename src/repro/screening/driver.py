"""Sharded, resumable virtual-screening driver.

Each compound of a ligand library gets its pose optimized by one
metaheuristic strategy (:func:`screen_ligand`) or by a trained policy,
and compounds are ranked by best score.  The library is planned into
deterministic shards (:mod:`repro.screening.plan`), shards fan out
across worker processes that each receive the receptor complex
**once** via the pool initializer, and per-shard results stream into
the run directory as they land:

- ``hits.jsonl`` -- one fsynced JSON line per screened ligand;
- ``screen_ranking.json`` -- the final atomic ranking artefact;
- telemetry events (``screen_start`` / ``shard`` / ``screen_end``),
  counters (``screening/ligands``, ``screening/shards_done``) and the
  ``screening/ligands_per_min`` gauge.

Receptor-side scorer state is built once per worker and shared across
every ligand that worker screens: each scoring method names its own
shared structure (:func:`repro.scoring.scorers.receptor_cache` -- a
:class:`~repro.scoring.neighborlist.CellList` for cutoff / incremental,
a :class:`~repro.scoring.field.FieldMaps` bundle for field, which
additionally grows lazily across ligands with new atom types) and takes
it back through its ``cells=`` parameter, so a 3k-atom-receptor screen
bins the receptor ``workers`` times, not ``n_ligands`` times.

Resumability: with a :class:`~repro.runtime.loop.RuntimeContext`
attached, every completed shard is memoized in ``results.json`` under a
key that fingerprints the screening parameters.  ``repro resume`` on an
interrupted screen therefore skips finished shards and -- because
per-ligand seeds are a pure function of (master seed, library index)
and JSON round-trips floats exactly -- reproduces the uninterrupted
ranking bit-for-bit.

Determinism contract: metaheuristic / montecarlo rankings are bitwise
invariant to ``workers`` *and* ``shard_size`` (ligands are independent
searches).  Policy-mode rankings are bitwise invariant to ``workers``
and to interruption, but pinned per ``shard_size`` (the shard is the
inference batch; see docs/SCREENING.md).
"""

from __future__ import annotations

import dataclasses
import json
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.chem.builders import BuiltComplex
from repro.chem.molecule import Molecule
from repro.metadock.engine import MetadockEngine
from repro.metadock.library import LibraryEntry
from repro.metadock.metaheuristic import MetaheuristicSchema
from repro.metadock.montecarlo import MonteCarloConfig, MonteCarloOptimizer
from repro.metadock.strategies import STRATEGY_PRESETS
from repro.runtime.loop import RunInterrupted, RuntimeContext
from repro.screening.plan import plan_shards, ranking_key
from repro.screening.policy import PolicyBundle, greedy_rollout, load_policy
from repro.scoring.scorers import receptor_cache, validate_scoring_kwargs
from repro.telemetry.sinks import JsonlEventSink
from repro.utils.serialization import atomic_write
from repro.utils.tables import render_table

#: Runtime phase name (checkpoint memo namespace + interrupt label).
PHASE = "screen"

#: Default ligands per shard (the policy-inference batch size).
DEFAULT_SHARD_SIZE = 8

#: Streamed per-ligand results, one fsynced JSON line each.
HITS_NAME = "hits.jsonl"

#: Final atomic ranking artefact (what CI compares for bit-equality).
RANKING_NAME = "screen_ranking.json"


@dataclass(frozen=True)
class ScreeningHit:
    """One ranked screening result."""

    compound_id: str
    best_score: float
    evaluations: int
    n_atoms: int


def _engine_for(
    built: BuiltComplex,
    ligand: Molecule,
    *,
    scoring_method: str = "exact",
    scoring_kwargs: dict | None = None,
) -> MetadockEngine:
    """Engine over ``built``'s receptor with a substituted ligand."""
    centered = ligand.with_coords(ligand.coords - ligand.centroid())
    initial = centered.translated(
        built.pocket_axis
        * (built.config.receptor_radius + built.config.initial_offset)
    )
    initial.name = f"{ligand.name}-initial"
    sub = dataclasses.replace(
        built,
        ligand_crystal=centered.translated(built.pocket_center),
        ligand_initial=initial,
    )
    return MetadockEngine(
        sub,
        scoring_method=scoring_method,
        scoring_kwargs=scoring_kwargs,
    )


def screen_ligand(
    built: BuiltComplex,
    entry: LibraryEntry,
    *,
    strategy: str = "scatter",
    budget: int = 400,
    seed: int = 0,
    scoring_method: str = "exact",
    scoring_kwargs: dict | None = None,
) -> ScreeningHit:
    """Optimize one compound's pose; return its best score."""
    engine = _engine_for(
        built,
        entry.ligand,
        scoring_method=scoring_method,
        scoring_kwargs=scoring_kwargs,
    )
    if strategy == "montecarlo":
        opt = MonteCarloOptimizer(
            engine,
            MonteCarloConfig(steps=budget, restarts=2),
            seed=seed,
        )
        result = opt.run()
    else:
        try:
            params = STRATEGY_PRESETS[strategy](budget)
        except KeyError:
            raise ValueError(
                f"unknown strategy {strategy!r}; options: "
                f"{sorted(STRATEGY_PRESETS) + ['montecarlo']}"
            ) from None
        result = MetaheuristicSchema(engine, params, seed=seed).run()
    return ScreeningHit(
        compound_id=entry.compound_id,
        best_score=float(result.best_score),
        evaluations=int(result.evaluations),
        n_atoms=entry.n_atoms,
    )


def _valid_strategies() -> list[str]:
    return sorted(STRATEGY_PRESETS) + ["montecarlo", "policy"]


@dataclass(frozen=True)
class ScreeningConfig:
    """Everything that defines one screening run.

    Picklable: workers receive the whole config once via the pool
    initializer.
    """

    strategy: str = "scatter"
    budget: int = 400
    seed: int = 0
    workers: int = 1
    shard_size: int = DEFAULT_SHARD_SIZE
    top_k: Optional[int] = None
    scoring_method: str = "exact"
    scoring_kwargs: dict = field(default_factory=dict)
    policy_path: Optional[str] = None
    policy_max_steps: int = 120

    def __post_init__(self) -> None:
        if self.strategy not in _valid_strategies():
            raise ValueError(
                f"unknown strategy {self.strategy!r}; options: "
                f"{_valid_strategies()}"
            )
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.policy_max_steps < 1:
            raise ValueError("policy_max_steps must be >= 1")
        if self.strategy == "policy" and not self.policy_path:
            raise ValueError(
                "strategy 'policy' requires policy_path "
                "(a trained checkpoint; see docs/SCREENING.md)"
            )
        validate_scoring_kwargs(self.scoring_method, self.scoring_kwargs)

    def fingerprint(self, n_ligands: int) -> str:
        """Short stable hash of every ranking-relevant parameter.

        Memo keys embed it so a results.json written under different
        screening parameters can never satisfy this run's shards.
        """
        blob = json.dumps(
            {
                "strategy": self.strategy,
                "budget": self.budget,
                "seed": self.seed,
                "shard_size": self.shard_size,
                "scoring_method": self.scoring_method,
                "scoring_kwargs": self.scoring_kwargs,
                "policy_path": self.policy_path,
                "policy_max_steps": self.policy_max_steps,
                "n_ligands": n_ligands,
            },
            sort_keys=True,
        )
        return f"{zlib.crc32(blob.encode()):08x}"


@dataclass
class ScreeningResult:
    """Ranked screening outcome plus run statistics."""

    hits: List[ScreeningHit]
    ranking: List[dict]
    n_ligands: int
    n_shards: int
    shards_cached: int
    workers: int
    shard_size: int
    strategy: str
    wall_seconds: float
    ligands_per_min: float
    #: Batched Q-network forward passes across all policy-mode shards
    #: (0 for search strategies and for pre-batching cached payloads).
    policy_forward_passes: int = 0
    #: Batched pose-scoring group calls across all policy-mode shards.
    score_batch_calls: int = 0

    def summary(self) -> str:
        rows = [
            (k + 1, h.compound_id, h.n_atoms, f"{h.best_score:.2f}")
            for k, h in enumerate(self.hits)
        ]
        table = render_table(
            ["rank", "compound", "atoms", "best score"],
            rows,
            title=f"Virtual screening ({self.strategy})",
            align=["r", "l", "r", "r"],
        )
        return table + (
            f"\n\n{self.n_ligands} ligands in {self.n_shards} shards "
            f"({self.shards_cached} from cache), "
            f"workers={self.workers}, shard_size={self.shard_size}: "
            f"{self.ligands_per_min:.1f} ligands/min "
            f"({self.wall_seconds:.2f}s wall)"
        )


# -- worker side -----------------------------------------------------------
# Module-level state installed once per worker by the pool initializer
# (also used in-process for workers=1): the complex and library are
# serialized per *worker*, never per shard, and receptor-side scorer
# structures (cell list, policy network) are built lazily once and
# reused across every shard the worker screens.
_WORKER: dict | None = None


def _init_worker(
    built: BuiltComplex,
    entries: List[LibraryEntry],
    config: ScreeningConfig,
    policy: Optional[PolicyBundle],
) -> None:
    global _WORKER
    _WORKER = {
        "built": built,
        "entries": entries,
        "config": config,
        "policy": policy,
        "cells": None,
        "cells_built": False,
        "network": None,
    }


def _worker_scoring_kwargs(worker: dict) -> dict:
    """Per-engine scoring kwargs with the worker's shared receptor cache.

    Each scorer builds the cache exactly as it would for itself, so
    sharing it leaves every result bit-identical to per-ligand
    construction.
    """
    config: ScreeningConfig = worker["config"]
    if not worker["cells_built"]:
        worker["cells"] = receptor_cache(
            config.scoring_method,
            worker["built"].receptor,
            **config.scoring_kwargs,
        )
        worker["cells_built"] = True
    kwargs = dict(config.scoring_kwargs)
    if worker["cells"] is not None:
        kwargs["cells"] = worker["cells"]
    return kwargs


def _run_shard(task: tuple) -> dict:
    """Screen one shard inside the (or this) process; returns a JSON-
    safe payload so results memoize into ``results.json`` directly."""
    if _WORKER is None:
        raise RuntimeError("screening worker not initialized")
    shard_id, indices, seeds = task
    worker = _WORKER
    config: ScreeningConfig = worker["config"]
    built: BuiltComplex = worker["built"]
    entries: List[LibraryEntry] = worker["entries"]
    t0 = time.perf_counter()
    scoring_kwargs = _worker_scoring_kwargs(worker)
    hits: list[dict] = []
    forward_passes = 0
    score_batch_calls = 0
    if config.strategy == "policy":
        if worker["network"] is None:
            worker["network"] = worker["policy"].build_network()
        engines = [
            _engine_for(
                built,
                entries[i].ligand,
                scoring_method=config.scoring_method,
                scoring_kwargs=scoring_kwargs,
            )
            for i in indices
        ]
        results, stats = greedy_rollout(
            worker["network"],
            engines,
            max_steps=config.policy_max_steps,
            observation_mode=worker["policy"].observation_mode,
        )
        forward_passes = stats.forward_passes
        score_batch_calls = stats.score_batch_calls
        for i, res in zip(indices, results):
            hits.append(
                {
                    "library_index": int(i),
                    "compound_id": entries[i].compound_id,
                    "best_score": res.best_score,
                    "evaluations": res.evaluations,
                    "n_atoms": entries[i].n_atoms,
                }
            )
    else:
        for i, seed in zip(indices, seeds):
            hit = screen_ligand(
                built,
                entries[i],
                strategy=config.strategy,
                budget=config.budget,
                seed=seed,
                scoring_method=config.scoring_method,
                scoring_kwargs=scoring_kwargs,
            )
            hits.append(
                {"library_index": int(i), **dataclasses.asdict(hit)}
            )
    return {
        "shard_id": int(shard_id),
        "hits": hits,
        "seconds": time.perf_counter() - t0,
        "forward_passes": int(forward_passes),
        "score_batch_calls": int(score_batch_calls),
    }


# -- driver side -----------------------------------------------------------
def run_screening(
    built: BuiltComplex,
    library: List[LibraryEntry],
    config: ScreeningConfig,
    *,
    telemetry=None,
    runtime: Optional[RuntimeContext] = None,
) -> ScreeningResult:
    """Screen ``library`` against ``built`` per ``config``.

    ``workers=1`` runs every shard in-process (ranking bitwise
    identical to calling :func:`screen_ligand` on each ligand in turn);
    ``workers>=2`` fans pending shards over a process pool.  With a
    ``runtime``, completed shards memoize and an interrupt surfaces as
    :class:`~repro.runtime.loop.RunInterrupted` at a shard boundary.
    """
    plan = plan_shards(len(library), config.shard_size, config.seed)
    fingerprint = config.fingerprint(len(library))
    policy = (
        load_policy(config.policy_path)
        if config.strategy == "policy"
        else None
    )
    run_dir: Optional[Path] = None
    if runtime is not None:
        run_dir = Path(runtime.dir)
    elif telemetry is not None:
        run_dir = Path(telemetry.dir)

    def memo_key(shard_id: int) -> str:
        return f"screen/{fingerprint}/shard-{shard_id:05d}"

    cached_ids = (
        {
            shard.shard_id
            for shard in plan
            if runtime.has_result(memo_key(shard.shard_id))
        }
        if runtime is not None
        else set()
    )
    registry = telemetry.registry if telemetry is not None else None
    tracer = telemetry.tracer if telemetry is not None else None
    if telemetry is not None:
        telemetry.emit(
            "screen_start",
            ligands=plan.n_ligands,
            shards=len(plan),
            cached_shards=len(cached_ids),
            workers=config.workers,
            shard_size=config.shard_size,
            strategy=config.strategy,
            scoring_method=config.scoring_method,
        )
        telemetry.flush()
    if registry is not None:
        registry.set("screening/shards_total", float(len(plan)))

    hits_sink = (
        JsonlEventSink(run_dir / HITS_NAME, buffer_size=1)
        if run_dir is not None
        else None
    )
    payloads: dict[int, dict] = {}
    t0 = time.perf_counter()

    def note_shard(payload: dict, *, cached: bool) -> None:
        payloads[payload["shard_id"]] = payload
        if not cached and hits_sink is not None:
            for hit in payload["hits"]:
                hits_sink.emit(
                    {"shard": payload["shard_id"], **hit}
                )
        done = sum(len(p["hits"]) for p in payloads.values())
        elapsed = max(time.perf_counter() - t0, 1e-9)
        per_min = done / elapsed * 60.0
        if registry is not None:
            registry.inc("screening/shards_done")
            if not cached:
                registry.inc(
                    "screening/ligands", len(payload["hits"])
                )
            registry.set("screening/ligands_per_min", per_min)
        if telemetry is not None:
            telemetry.emit(
                "shard",
                shard=payload["shard_id"],
                ligands=len(payload["hits"]),
                seconds=round(float(payload["seconds"]), 6),
                cached=cached,
                ligands_per_min=round(per_min, 3),
            )
            telemetry.flush()

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    try:
        with span("screen"):
            for shard in plan:
                if shard.shard_id in cached_ids:
                    payload = runtime.cached(
                        memo_key(shard.shard_id), lambda: None
                    )
                    note_shard(payload, cached=True)
            pending = [
                shard
                for shard in plan
                if shard.shard_id not in cached_ids
            ]
            if pending and config.workers <= 1:
                _init_worker(built, library, config, policy)
                for shard in pending:
                    if runtime is not None:
                        runtime.check_interrupt(PHASE)
                    with span("shard"):
                        payload = _run_shard(
                            (shard.shard_id, shard.indices, shard.seeds)
                        )
                    if runtime is not None:
                        runtime.cached(
                            memo_key(shard.shard_id),
                            lambda p=payload: p,
                        )
                    note_shard(payload, cached=False)
            elif pending:
                if runtime is not None:
                    runtime.check_interrupt(PHASE)
                with ProcessPoolExecutor(
                    max_workers=min(config.workers, len(pending)),
                    initializer=_init_worker,
                    initargs=(built, library, config, policy),
                ) as pool:
                    futures = [
                        (
                            shard,
                            pool.submit(
                                _run_shard,
                                (
                                    shard.shard_id,
                                    shard.indices,
                                    shard.seeds,
                                ),
                            ),
                        )
                        for shard in pending
                    ]
                    try:
                        for shard, future in futures:
                            if (
                                runtime is not None
                                and runtime.stop_requested
                            ):
                                raise RunInterrupted(PHASE)
                            with span("shard"):
                                payload = future.result()
                            if runtime is not None:
                                runtime.cached(
                                    memo_key(shard.shard_id),
                                    lambda p=payload: p,
                                )
                            note_shard(payload, cached=False)
                    except BaseException:
                        for _, future in futures:
                            future.cancel()
                        raise
    finally:
        if hits_sink is not None:
            hits_sink.close()

    all_hits = [
        hit
        for shard_id in sorted(payloads)
        for hit in payloads[shard_id]["hits"]
    ]
    ranked = sorted(all_hits, key=ranking_key)
    ranking = [
        {"rank": position + 1, **hit}
        for position, hit in enumerate(ranked)
    ]
    wall = time.perf_counter() - t0
    per_min = plan.n_ligands / max(wall, 1e-9) * 60.0
    # .get(): payloads memoized by pre-batching runs lack the counters.
    total_forward = sum(
        int(p.get("forward_passes", 0)) for p in payloads.values()
    )
    total_score_batches = sum(
        int(p.get("score_batch_calls", 0)) for p in payloads.values()
    )
    if run_dir is not None:
        document = {
            "strategy": config.strategy,
            "scoring_method": config.scoring_method,
            "seed": config.seed,
            "budget": config.budget,
            "shard_size": config.shard_size,
            "workers": config.workers,
            "n_ligands": plan.n_ligands,
            "fingerprint": fingerprint,
            "hits": ranking,
        }
        atomic_write(
            run_dir / RANKING_NAME,
            json.dumps(document, indent=2) + "\n",
        )
    if telemetry is not None:
        telemetry.emit(
            "screen_end",
            ligands=plan.n_ligands,
            shards=len(plan),
            cached_shards=len(cached_ids),
            wall_seconds=round(wall, 6),
            ligands_per_min=round(per_min, 3),
            policy_forward_passes=total_forward,
            score_batch_calls=total_score_batches,
        )
        telemetry.flush()
    hit_objects = [
        ScreeningHit(
            compound_id=str(hit["compound_id"]),
            best_score=float(hit["best_score"]),
            evaluations=int(hit["evaluations"]),
            n_atoms=int(hit["n_atoms"]),
        )
        for hit in ranked
    ]
    if config.top_k is not None:
        hit_objects = hit_objects[: config.top_k]
    return ScreeningResult(
        hits=hit_objects,
        ranking=ranking,
        n_ligands=plan.n_ligands,
        n_shards=len(plan),
        shards_cached=len(cached_ids),
        workers=config.workers,
        shard_size=config.shard_size,
        strategy=config.strategy,
        wall_seconds=wall,
        ligands_per_min=per_min,
        policy_forward_passes=total_forward,
        score_batch_calls=total_score_batches,
    )
