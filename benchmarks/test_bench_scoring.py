"""Bench: Equation 1 / Algorithm 1 -- the scoring function.

Reproduces the paper's core computational claim: per-pose scoring is the
bottleneck and the data-parallel formulation beats the sequential loop by
orders of magnitude.  Rows produced:

- vectorized full Eq. 1 at bench scale and at 2BSM scale;
- the sequential Algorithm 1 baseline (pure Python, paper pseudocode);
- batched multi-pose scoring (the METADOCK many-positions pattern).
"""

import numpy as np
import pytest

from repro.scoring.composite import (
    interaction_score,
    score_pose_batch,
)
from repro.scoring.reference import sequential_score_algorithm1


def test_bench_vectorized_score(benchmark, bench_complex):
    s = benchmark(
        interaction_score, bench_complex.receptor, bench_complex.ligand_crystal
    )
    assert np.isfinite(s)


def test_bench_vectorized_score_2bsm_scale(benchmark, paper_complex):
    """Full 3,264 x 45 pair matrix -- the paper's per-step cost."""
    s = benchmark(
        interaction_score, paper_complex.receptor, paper_complex.ligand_crystal
    )
    assert np.isfinite(s)


def test_bench_sequential_algorithm1(benchmark, bench_complex):
    """The paper's sequential baseline (pure Python triple loop)."""
    out = benchmark.pedantic(
        sequential_score_algorithm1,
        args=(bench_complex.receptor, bench_complex.ligand_crystal),
        rounds=2,
        iterations=1,
    )
    # Parity with the vectorized path is the correctness anchor.
    vec = interaction_score(
        bench_complex.receptor, bench_complex.ligand_crystal
    )
    assert out[0] == pytest.approx(vec, rel=1e-9)


def test_vectorized_beats_sequential(bench_complex):
    """The headline speedup claim, asserted (not just reported)."""
    import time

    rec, lig = bench_complex.receptor, bench_complex.ligand_crystal
    t0 = time.perf_counter()
    sequential_score_algorithm1(rec, lig)
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(10):
        interaction_score(rec, lig)
    t_vec = (time.perf_counter() - t0) / 10
    speedup = t_seq / t_vec
    print(f"\nvectorized-vs-sequential speedup: {speedup:.0f}x")
    # ~36x on the reference machine; 10x is the portable floor.
    assert speedup > 10.0


def test_bench_batched_poses(benchmark, bench_complex):
    """256 poses per call -- METADOCK's many-positions evaluation."""
    rng = np.random.default_rng(0)
    lig = bench_complex.ligand_crystal
    batch = lig.coords[None] + rng.normal(scale=2.0, size=(256, 1, 3))
    scores = benchmark(
        score_pose_batch, bench_complex.receptor, lig, batch
    )
    assert scores.shape == (256,)


def test_batched_amortizes_versus_singles(bench_complex):
    """Batch evaluation must beat one-at-a-time by a clear factor."""
    import time

    rng = np.random.default_rng(1)
    lig = bench_complex.ligand_crystal
    batch = lig.coords[None] + rng.normal(scale=2.0, size=(64, 1, 3))
    t0 = time.perf_counter()
    score_pose_batch(bench_complex.receptor, lig, batch)
    t_batch = time.perf_counter() - t0
    t0 = time.perf_counter()
    for k in range(64):
        interaction_score(
            bench_complex.receptor, lig.with_coords(batch[k])
        )
    t_single = time.perf_counter() - t0
    print(f"\nbatch amortization: {t_single / t_batch:.1f}x")
    assert t_batch < t_single
