"""Deterministic shard planning for the virtual-screening service.

A screening run is partitioned into contiguous shards of library
entries.  The per-ligand seeds are derived exactly as a serial loop
over the library would derive them -- one
``RngFactory(seed).seeds("screening", n_ligands)`` draw over the *whole*
library, then sliced per shard -- so the work a ligand receives is a
pure function of ``(master seed, library index)``, independent of the
shard size, the worker count, and the completion order.  That is the
invariant that makes the sharded ranking bitwise identical to the
serial one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import RngFactory

#: Stream name used by the serial screener for per-ligand seeds; the
#: shard planner must draw from the identical stream.
SEED_STREAM = "screening"


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the library with its per-ligand seeds."""

    shard_id: int
    indices: tuple[int, ...]
    seeds: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ShardPlan:
    """The full, deterministic decomposition of one screening run."""

    n_ligands: int
    shard_size: int
    seed: int
    shards: tuple[Shard, ...]

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)


def plan_shards(n_ligands: int, shard_size: int, seed: int = 0) -> ShardPlan:
    """Partition ``n_ligands`` into contiguous shards of ``shard_size``.

    Seeds come from the same stream (and the same single draw) the
    serial screener uses, so shard boundaries never change what any
    individual ligand computes.
    """
    if n_ligands < 0:
        raise ValueError("n_ligands must be non-negative")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    seeds = RngFactory(seed).seeds(SEED_STREAM, n_ligands)
    shards = tuple(
        Shard(
            shard_id=k,
            indices=tuple(range(start, min(start + shard_size, n_ligands))),
            seeds=tuple(seeds[start : start + shard_size]),
        )
        for k, start in enumerate(range(0, n_ligands, shard_size))
    )
    return ShardPlan(
        n_ligands=n_ligands,
        shard_size=shard_size,
        seed=seed,
        shards=shards,
    )


def ranking_key(hit_record: dict) -> tuple:
    """Sort key reproducing the serial ranking exactly.

    The serial screener stable-sorts library-ordered hits by score
    descending, so ties keep library order; sorting arbitrary-order
    records by ``(-best_score, library_index)`` yields the identical
    sequence.
    """
    return (-hit_record["best_score"], hit_record["library_index"])
