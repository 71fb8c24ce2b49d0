"""Bitwise batch-vs-singles pins for every registered pose scorer.

The pose-major ``score_batch`` paths promise entries *bitwise equal* to
sequential single-pose ``score`` calls — not merely close.  These pins
exercise each scorer across the regimes that take different code paths:

- *calm* poses near the crystal pose (pure interpolation / cached-list
  fast paths);
- *clash* poses with a ligand atom placed exactly on a receptor atom
  (``MIN_DISTANCE`` clamps, field near-field pair corrections);
- *out-of-box* poses far outside any grid/field box (exact-column
  fallbacks, grid boundary clamps);
- a *mixed* batch concatenating all three;
- for the field scorer, *shell* poses (every atom between the fine and
  the outer box) and *straddling* poses (fine, shell and beyond-outer
  atoms in one pose).

Also pinned: empty-batch fast paths (no lazy structure built), batch
shape validation, eager ``GridScorer`` dtype validation, per-pose
``near_fraction`` / histogram telemetry in field batch mode, and the
cross-ligand ``score_field_group`` / ``score_pose_group`` front doors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metadock.library import generate_library
from repro.scoring.field import (
    NEAR_FRACTION_METRIC,
    OUTER_FRACTION_METRIC,
    FieldMaps,
    FieldScorer,
    score_field_group,
)
from repro.scoring.scorers import (
    ExactScorer,
    GridScorer,
    SCORING_METHODS,
    make_scorer,
    score_pose_group,
)
from repro.telemetry.metrics import MetricsRegistry


def _pose_batches(built, rng):
    """(calm, clash, oob, mixed) pose batches around the crystal pose."""
    base = built.ligand_crystal.coords
    calm = base[None] + rng.normal(scale=0.3, size=(6,) + base.shape)
    clash = np.repeat(base[None], 3, axis=0)
    for j in range(3):
        # Ligand atom 0 exactly on a receptor atom: r == 0 before the
        # MIN_DISTANCE clamp, and inside the field clash radius.
        clash[j, 0] = built.receptor.coords[j * 7]
    oob = base[None] + np.array(
        [[200.0, 0.0, 0.0], [0.0, -250.0, 0.0], [0.0, 0.0, 300.0]]
    ).reshape(3, 1, 3)
    mixed = np.concatenate([calm, clash, oob], axis=0)
    return calm, clash, oob, mixed


@pytest.mark.parametrize("method", SCORING_METHODS)
def test_batch_bitwise_matches_singles(small_complex, rng, method):
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    batches = _pose_batches(small_complex, rng)
    batch_scorer = make_scorer(method, rec, lig)
    single_scorer = make_scorer(method, rec, lig)
    for cb in batches:
        got = batch_scorer.score_batch(cb)
        ref = np.array([single_scorer.score(p) for p in cb])
        assert np.array_equal(got, ref), method
    # Re-scoring the mixed batch on the now-warm scorer (Verlet cache,
    # built grid/maps) must reproduce the same floats.
    mixed = batches[-1]
    first = batch_scorer.score_batch(mixed)
    assert np.array_equal(batch_scorer.score_batch(mixed), first)


@pytest.mark.parametrize("method", SCORING_METHODS)
def test_empty_batch_short_circuits(small_complex, method):
    lig = small_complex.ligand_crystal
    scorer = make_scorer(method, small_complex.receptor, lig)
    out = scorer.score_batch(np.empty((0, lig.n_atoms, 3)))
    assert out.shape == (0,)
    if method == "grid":
        # k == 0 must return before triggering the lazy grid build.
        assert scorer._grid is None


@pytest.mark.parametrize("method", SCORING_METHODS)
def test_batch_shape_validated(small_complex, method):
    lig = small_complex.ligand_crystal
    scorer = make_scorer(method, small_complex.receptor, lig)
    with pytest.raises(ValueError, match="coords_batch"):
        scorer.score_batch(np.zeros((2, lig.n_atoms + 1, 3)))
    with pytest.raises(ValueError, match="coords_batch"):
        scorer.score_batch(np.zeros((lig.n_atoms, 3)))


def test_grid_dtype_validated_eagerly(small_complex):
    with pytest.raises(ValueError, match="dtype"):
        GridScorer(
            small_complex.receptor,
            small_complex.ligand_crystal,
            dtype="float16",
        )


def test_field_batch_near_fraction_and_histogram(small_complex, rng):
    """Batch mode observes one histogram value per pose and leaves
    ``near_fraction`` at the last pose's value — as sequential calls."""
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    _, _, _, mixed = _pose_batches(small_complex, rng)

    batch_scorer = FieldScorer(rec, lig)
    batch_scorer.metrics = MetricsRegistry()
    got = batch_scorer.score_batch(mixed)

    single_scorer = FieldScorer(rec, lig)
    single_scorer.metrics = MetricsRegistry()
    ref = np.array([single_scorer.score(p) for p in mixed])

    assert np.array_equal(got, ref)
    assert batch_scorer.near_fraction == single_scorer.near_fraction
    h_batch = batch_scorer.metrics.get(NEAR_FRACTION_METRIC)
    h_single = single_scorer.metrics.get(NEAR_FRACTION_METRIC)
    assert h_batch.count == mixed.shape[0]
    assert h_batch.count == h_single.count
    assert h_batch.mean == h_single.mean
    assert h_batch.max == h_single.max
    # Clash poses force the exact path for at least one atom.
    assert h_batch.max > 0.0


def _shell_batches(built, rng):
    """(shell, straddling) pose batches for the default field geometry:
    +40 A along an axis lands between the fine box (16 A padding) and
    the outer box (48 A); +300 A is beyond both."""
    base = built.ligand_crystal.coords
    m = base.shape[0]
    shifts = np.array(
        [[40.0, 0.0, 0.0], [0.0, -40.0, 0.0], [0.0, 0.0, 40.0]]
    ).reshape(3, 1, 3)
    shell = base[None] + shifts + rng.normal(scale=0.3, size=(3,) + base.shape)
    straddle = base[None] + rng.normal(scale=0.3, size=(3,) + base.shape)
    straddle[:, m // 3 : 2 * m // 3] += shifts
    straddle[:, 2 * m // 3 :] += 300.0
    return shell, straddle


def test_field_shell_and_straddling_batches_bitwise(small_complex, rng):
    """Both lattice levels and the exact columns in one fused batch:
    ``score_batch`` and ``score_field_group`` reproduce ``score``'s
    floats and per-pose fractions."""
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    m = lig.n_atoms
    calm, clash, oob, _ = _pose_batches(small_complex, rng)
    shell, straddle = _shell_batches(small_complex, rng)
    mixed = np.concatenate([shell, calm[:2], straddle, clash[:1], oob[:1]])

    single = FieldScorer(rec, lig)
    single.metrics = MetricsRegistry()
    ref, near, outer = [], [], []
    for p in mixed:
        ref.append(single.score(p))
        near.append(single.near_fraction)
        outer.append(single.outer_fraction)
    # The batch really covers the three regimes.
    assert outer[:3] == [1.0] * 3 and near[:3] == [0.0] * 3
    n_shell = 2 * m // 3 - m // 3
    assert outer[5:8] == [n_shell / m] * 3
    assert all(f >= (m - 2 * m // 3) / m for f in near[5:8])

    batch = FieldScorer(rec, lig)
    batch.metrics = MetricsRegistry()
    for cb in (shell, straddle, mixed):
        want = np.array([single.score(p) for p in cb])
        assert np.array_equal(batch.score_batch(cb), want)
    assert batch.near_fraction == near[-1]
    assert batch.outer_fraction == outer[-1]
    h = batch.metrics.get(OUTER_FRACTION_METRIC)
    assert h.count == len(shell) + len(straddle) + len(mixed)
    assert h.max == 1.0

    maps = FieldMaps(rec)
    group = [FieldScorer(rec, lig, cells=maps) for _ in mixed]
    got = score_field_group(list(zip(group, mixed)))
    assert np.array_equal(got, np.array(ref))
    assert [sc.near_fraction for sc in group] == near
    assert [sc.outer_fraction for sc in group] == outer


def test_score_field_group_heterogeneous_shared_maps(small_complex, rng):
    """Different ligands sharing one FieldMaps fuse into one kernel and
    still reproduce each scorer's single-pose floats."""
    rec = small_complex.receptor
    library = generate_library(small_complex.config, 3, seed=7)
    maps = FieldMaps(rec)
    scorers = [
        FieldScorer(rec, e.ligand, cells=maps) for e in library
    ] + [FieldScorer(rec, small_complex.ligand_crystal, cells=maps)]
    entries = []
    for j, sc in enumerate(scorers):
        pose = sc.ligand.coords + rng.normal(
            scale=0.3, size=sc.ligand.coords.shape
        )
        if j % 2:
            pose[: sc.ligand.n_atoms // 2, 0] += 40.0  # into the shell
        entries.append((sc, pose))
    got = score_field_group(entries)
    assert scorers[1].outer_fraction > 0.0
    ref = np.array(
        [
            FieldScorer(rec, sc.ligand, cells=maps).score(pose)
            for sc, pose in entries
        ]
    )
    assert np.array_equal(got, ref)


def test_score_field_group_rejects_non_field_scorer(small_complex):
    lig = small_complex.ligand_crystal
    exact = ExactScorer(small_complex.receptor, lig)
    with pytest.raises(TypeError, match="FieldScorer"):
        score_field_group([(exact, lig.coords)])


def test_score_pose_group_mixed_scorers(small_complex, rng):
    """The rollout front door: field entries fuse, everything else goes
    through its own ``score()`` — each entry bitwise either way."""
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    maps = FieldMaps(rec)
    scorers = [
        make_scorer("exact", rec, lig),
        FieldScorer(rec, lig, cells=maps),
        make_scorer("incremental", rec, lig),
        FieldScorer(rec, lig, cells=maps),
        make_scorer("cutoff", rec, lig),
    ]
    entries = [
        (
            sc,
            lig.coords
            + rng.normal(scale=0.3, size=lig.coords.shape),
        )
        for sc in scorers
    ]
    got = score_pose_group(entries)
    ref = np.array([sc.score(pose) for sc, pose in entries])
    assert np.array_equal(got, ref)
    assert got.shape == (len(entries),)


def test_score_pose_group_empty():
    assert score_pose_group([]).shape == (0,)
