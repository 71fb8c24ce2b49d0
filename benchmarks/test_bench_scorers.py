"""Bench: scorer-method ablation (exact vs cutoff).

The engine's speed/accuracy dial, quantified: per-pose latency and
score error of each method against the exact Eq. 1 evaluation -- the CPU
analogue of METADOCK's windowed-GPU evaluation choices.
"""

import numpy as np
import pytest

from repro.scoring.scorers import ExactScorer, make_scorer


@pytest.fixture(scope="module")
def scorer_setup(bench_complex):
    lig = bench_complex.ligand_crystal
    template = lig.with_coords(lig.coords - lig.centroid())
    return bench_complex.receptor, template, lig.coords


def test_bench_exact_scorer(benchmark, scorer_setup):
    rec, template, coords = scorer_setup
    scorer = ExactScorer(rec, template)
    s = benchmark(scorer.score, coords)
    assert np.isfinite(s)


def test_bench_cutoff_scorer(benchmark, scorer_setup):
    rec, template, coords = scorer_setup
    scorer = make_scorer("cutoff", rec, template, cutoff=12.0)
    s = benchmark(scorer.score, coords)
    assert np.isfinite(s)


def test_scorer_accuracy_ladder(scorer_setup):
    """Shifted-cutoff error shrinks with radius."""
    rec, template, coords = scorer_setup
    exact = ExactScorer(rec, template).score(coords)
    rows = []
    for cutoff in (12.0, 16.0, 20.0):
        s = make_scorer("cutoff", rec, template, cutoff=cutoff).score(coords)
        rows.append((f"cutoff {cutoff:.0f} A", s, abs(s - exact)))
    print(f"\nexact score: {exact:.3f}")
    for name, s, err in rows:
        print(f"  {name:<14} score {s:10.3f}   |err| {err:8.3f}")
    errs = [r[2] for r in rows]
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] < 0.05 * max(abs(exact), 1.0)
