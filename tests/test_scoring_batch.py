"""The pose-scorer contract, asserted once per ``SCORER_REGISTRY`` entry.

Every registered scorer promises:

- ``score_batch(cb)[i]`` *bitwise equal* to ``score(cb[i])`` -- not
  merely close -- for empty, single-pose and many-pose batches across
  the regimes that take different code paths: *calm* poses near the
  crystal pose (pure interpolation / cached-list fast paths), *clash*
  poses with a ligand atom placed exactly on a receptor atom
  (``MIN_DISTANCE`` clamps, field near-field pair corrections),
  *out-of-box* poses far outside any field box or cutoff (exact-column
  fallbacks, zero-pair lists) and a *mixed* batch of all three;
- warm == cold == shared-``receptor_cache`` bitwise: the score is a
  pure function of the pose, whatever the scorer scored before and
  whoever built its receptor-side cache;
- one ``ValueError`` for a wrong-size pose (``as_pose``) or batch
  (``as_pose_batch``), before any lazy structure is built;
- ``nan`` for a non-finite pose, never a rankable number.

For the field scorer additionally: *shell* poses (every atom between
the fine and the outer box) and *straddling* poses (fine, shell and
beyond-outer atoms in one pose), batches split across several fused
chunks, per-pose ``near_fraction`` / histogram telemetry in batch mode,
and the cross-ligand ``score_pose_group`` front door.  For the
incremental scorer, at the default skin and at skin 0: generated
batches of calm, clash, beyond-cutoff, cutoff-straddling and
non-finite poses score bitwise as fresh single calls and leave the
Verlet walk -- its list, counters, gauges and rebuild decisions --
exactly as it was; the "cutoff" method tracks the independently
written reference in ``tests/cutoff_reference.py`` on the same
batches.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metadock.library import generate_library
from repro.scoring.field import (
    NEAR_FRACTION_METRIC,
    OUTER_FRACTION_METRIC,
    FieldMaps,
    FieldScorer,
)
from repro.scoring.incremental import (
    DEFAULT_SKIN,
    DRIFT_REL_BOUND,
    IncrementalScorer,
)
from repro.scoring.scorers import (
    SCORER_REGISTRY,
    ExactScorer,
    make_scorer,
    receptor_cache,
    score_pose_group,
)
from repro.telemetry.metrics import MetricsRegistry
from tests.cutoff_reference import CutoffReference

METHODS = list(SCORER_REGISTRY)

#: A non-default config per method that has one, so the shared-cache pin
#: also covers ``receptor_cache`` reading the same kwargs the scorer does.
TUNED_KWARGS = {
    "cutoff": {"cutoff": 9.0, "shifted": False},
    "incremental": {"cutoff": 9.0, "skin": 2.0, "shifted": False},
    "field": {"spacing": 1.5, "padding": 8.0, "clash_radius": 2.5},
}


def _pose_batches(built, rng):
    """(calm, clash, oob, mixed) 7-pose batches around the crystal pose."""
    base = built.ligand_crystal.coords
    calm = base[None] + rng.normal(scale=0.3, size=(7,) + base.shape)
    clash = np.repeat(base[None], 7, axis=0)
    for j in range(7):
        # Ligand atom 0 exactly on a receptor atom: r == 0 before the
        # MIN_DISTANCE clamp, and inside the field clash radius.
        clash[j, 0] = built.receptor.coords[j * 7]
    oob = base[None] + np.array(
        [
            [200.0, 0.0, 0.0],
            [0.0, -250.0, 0.0],
            [0.0, 0.0, 300.0],
            [-200.0, 0.0, 0.0],
            [0.0, 250.0, 0.0],
            [0.0, 0.0, -300.0],
            [150.0, 150.0, 150.0],
        ]
    ).reshape(7, 1, 3)
    mixed = np.stack(
        [calm[0], clash[0], oob[0], calm[1], calm[2], clash[1], oob[1]]
    )
    return calm, clash, oob, mixed


@pytest.mark.parametrize("method", METHODS)
def test_batch_bitwise_matches_singles(small_complex, rng, method):
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    batches = _pose_batches(small_complex, rng)
    batch_scorer = make_scorer(method, rec, lig)
    single_scorer = make_scorer(method, rec, lig)
    for cb in batches:
        for k in (0, 1, 7):
            got = batch_scorer.score_batch(cb[:k])
            ref = np.array([single_scorer.score(p) for p in cb[:k]])
            assert got.shape == (k,)
            assert np.array_equal(got, ref), (method, k)
    # Re-scoring the mixed batch on the now-warm scorer (Verlet cache,
    # built maps) must reproduce the same floats.
    mixed = batches[-1]
    first = batch_scorer.score_batch(mixed)
    assert np.array_equal(batch_scorer.score_batch(mixed), first)


@pytest.mark.parametrize(
    "method, kw",
    [pytest.param(m, {}, id=f"{m}-default") for m in METHODS]
    + [pytest.param(m, kw, id=f"{m}-tuned") for m, kw in TUNED_KWARGS.items()],
)
def test_warm_cold_shared_cache_bitwise(
    small_complex, rng, method, kw, fresh_map_cache
):
    """A fresh scorer per pose, one long-lived scorer, and scorers fed
    the registry-built ``receptor_cache`` agree to the last bit."""
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    *_, mixed = _pose_batches(small_complex, rng)
    poses = mixed[:3]  # one calm, one clash, one out-of-box

    def cold_score(pose):
        fresh_map_cache()  # field: each fresh scorer builds its maps cold
        return make_scorer(method, rec, lig, **kw).score(pose)

    cold = np.array([cold_score(p) for p in poses])
    warm_scorer = make_scorer(method, rec, lig, **kw)
    warm_scorer.score_batch(mixed[::-1])
    warm = np.array([warm_scorer.score(p) for p in poses])
    assert np.array_equal(warm, cold)

    cache = receptor_cache(method, rec, **kw)
    has_cache = "cells" in SCORER_REGISTRY[method].kwargs
    assert (cache is not None) == has_cache
    if has_cache:
        # One cache serves every scorer built against this receptor.
        shared = [
            make_scorer(method, rec, lig, cells=cache, **kw).score(p)
            for p in poses
        ]
        assert np.array_equal(np.array(shared), cold)


@pytest.mark.parametrize("method", METHODS)
def test_empty_batch_short_circuits(small_complex, method):
    lig = small_complex.ligand_crystal
    scorer = make_scorer(method, small_complex.receptor, lig)
    out = scorer.score_batch(np.empty((0, lig.n_atoms, 3)))
    assert out.shape == (0,)
    if method == "field":
        # k == 0 must return before triggering the lazy map build.
        assert scorer._maps.build_count == 0


@pytest.mark.parametrize("method", METHODS)
def test_batch_shape_validated(small_complex, method):
    lig = small_complex.ligand_crystal
    scorer = make_scorer(method, small_complex.receptor, lig)
    with pytest.raises(ValueError, match="coords_batch"):
        scorer.score_batch(np.zeros((2, lig.n_atoms + 1, 3)))
    with pytest.raises(ValueError, match="coords_batch"):
        scorer.score_batch(np.zeros((lig.n_atoms, 3)))


@pytest.mark.parametrize("method", METHODS)
def test_pose_shape_validated(small_complex, method):
    """Every scorer's ``score`` goes through ``as_pose``: a pose one
    atom short is an error, not a number."""
    lig = small_complex.ligand_crystal
    m = lig.n_atoms
    scorer = make_scorer(method, small_complex.receptor, lig)
    for bad in (lig.coords[:-1], lig.coords[None], np.zeros((m, 2))):
        with pytest.raises(ValueError, match=rf"coords must have shape \({m}, 3\)"):
            scorer.score(bad)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
@pytest.mark.parametrize("method", METHODS)
def test_non_finite_pose_scores_nan(small_complex, rng, method, bad_value):
    """A non-finite pose scores ``nan`` -- never 0.0, which would
    outrank every clash -- without a warning, alone or inside a batch
    whose other entries are untouched."""
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    calm, *_ = _pose_batches(small_complex, rng)
    broken = calm[1].copy()
    broken[2, 1] = bad_value
    cb = np.stack([calm[0], broken, calm[2]])
    scorer = make_scorer(method, rec, lig)
    reference = make_scorer(method, rec, lig)
    with warnings.catch_warnings():
        if "cutoff" in SCORER_REGISTRY[method].kwargs:
            # The oracle's own arithmetic may warn on inf; the rule is
            # that a neighbour-list scorer never reaches its query.
            warnings.simplefilter("error")
        else:
            warnings.simplefilter("ignore", RuntimeWarning)
        assert np.isnan(scorer.score(broken))
        got = scorer.score_batch(cb)
    assert np.isnan(got[1])
    assert got[0] == reference.score(calm[0])
    assert got[2] == reference.score(calm[2])


def test_non_finite_pose_leaves_verlet_list_alone(small_complex, rng):
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    scorer = IncrementalScorer(rec, lig)
    scorer.score(lig.coords)
    broken = lig.coords.copy()
    broken[0, 0] = np.nan
    assert np.isnan(scorer.score(broken))
    assert np.isnan(scorer.score_batch(broken[None])[0])
    assert scorer.rebuild_count == 1
    # A cold scorer does not build a list for it either.
    cold = IncrementalScorer(rec, lig)
    assert np.isnan(cold.score(broken))
    assert cold.rebuild_count == 0


class _RecordingMetrics:
    """Stands in for a MetricsRegistry: keeps every update in order."""

    def __init__(self):
        self.calls = []

    def inc(self, name, amount=1.0):
        self.calls.append(("inc", name, amount))

    def set(self, name, value):
        self.calls.append(("set", name, value))


#: Pose kinds of the generated incremental batches.
_KINDS = ("calm", "clash", "beyond", "straddle", "nan")


@st.composite
def _jump_batches(draw):
    """(kinds, seed, straddle offsets) for a batch of 0-12 poses.

    A *straddle* pose puts one ligand atom ``cutoff + t * 1e-14`` A from
    a receptor atom along x (``t`` in -2..2), so the pair sits within a
    few ulps of the cutoff on either side -- inside the neighbour
    query's rounding margin, where only the exact ``r <= cutoff``
    compression decides.
    """
    kinds = draw(st.lists(st.sampled_from(_KINDS), max_size=12))
    offsets = [draw(st.integers(-2, 2)) for _ in kinds]
    return kinds, draw(st.integers(0, 2**32 - 1)), offsets


def _make_batch(built, cutoff, kinds, seed, offsets) -> np.ndarray:
    base = built.ligand_crystal.coords
    rec = built.receptor.coords
    rng = np.random.default_rng(seed)
    poses = []
    for kind, t in zip(kinds, offsets):
        pose = base + rng.normal(scale=0.3, size=base.shape)
        atom = int(rng.integers(base.shape[0]))
        near = rec[int(rng.integers(rec.shape[0]))]
        if kind == "clash":
            pose[atom] = near
        elif kind == "beyond":
            u = rng.normal(size=3)
            pose += (60.0 + cutoff) * u / np.linalg.norm(u)
        elif kind == "straddle":
            pose[atom] = near + [cutoff + t * 1e-14, 0.0, 0.0]
        elif kind == "nan":
            pose[atom, int(rng.integers(3))] = np.nan
        poses.append(pose)
    return np.array(poses).reshape((len(kinds),) + base.shape)


def _walk_state(scorer) -> tuple:
    return scorer.rebuild_count, scorer.active_pairs, len(scorer.metrics.calls)


# Every kind, including a straddling pair just beyond the cutoff: a
# score_batch that kept the neighbour query's rounding-margin extras
# instead of compressing to r <= cutoff fails on it.
@example(
    batch=(list(_KINDS) + ["straddle"] * 4, 7, [0, 0, 0, 1, 0, 2, 1, 2, -1]),
    cutoff=12.0,
    skin=DEFAULT_SKIN,
    walk_seed=0,
    interleave=[True, False, True, True],
    bonded=False,
)
@example(
    batch=(list(_KINDS) + ["straddle"] * 4, 7, [0, 0, 0, 1, 0, 2, 1, 2, -1]),
    cutoff=12.0,
    skin=0.0,
    walk_seed=0,
    interleave=[True, False, True, True],
    bonded=True,
)
@given(
    batch=_jump_batches(),
    cutoff=st.sampled_from([6.0, 12.0]),
    skin=st.sampled_from([0.0, DEFAULT_SKIN]),
    walk_seed=st.integers(0, 2**32 - 1),
    interleave=st.lists(st.booleans(), min_size=1, max_size=6),
    bonded=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_incremental_batch_leaves_the_walk_alone(
    small_complex, bonded_complex, batch, cutoff, skin, walk_seed,
    interleave, bonded,
):
    """``score_batch`` scores each pose on its own exact cutoff pair set:
    every entry is bitwise a fresh scorer's ``score``, the Verlet walk's
    counters and telemetry do not move, and a walk with batch calls
    interleaved scores and rebuilds exactly as the walk alone -- with a
    skin, and at skin 0 where every walk step rebuilds; on a receptor
    without bonds and on one whose H-bond atoms have directions."""
    built = bonded_complex if bonded else small_complex
    rec = built.receptor
    lig = built.ligand_crystal
    cb = _make_batch(built, cutoff, *batch)

    def fresh():
        return IncrementalScorer(rec, lig, cutoff=cutoff, skin=skin)

    ref = np.array([fresh().score(p) for p in cb])
    alone, mixed = fresh(), fresh()
    alone.metrics, mixed.metrics = _RecordingMetrics(), _RecordingMetrics()
    rng = np.random.default_rng(walk_seed)
    pose = lig.coords
    for batch_first in interleave:
        if batch_first:
            before = _walk_state(mixed)
            got = mixed.score_batch(cb)
            assert got.shape == (len(cb),)
            assert got.tobytes() == ref.tobytes()
            assert _walk_state(mixed) == before
        pose = pose + rng.normal(scale=0.5, size=pose.shape)
        a, b = alone.score(pose), mixed.score(pose)
        assert np.array([a]).tobytes() == np.array([b]).tobytes()
        assert alone.rebuild_count == mixed.rebuild_count
    assert _walk_state(mixed) == _walk_state(alone)
    assert mixed.metrics.calls == alone.metrics.calls


@given(
    batch=_jump_batches(),
    cutoff=st.sampled_from([6.0, 12.0]),
    bonded=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_cutoff_method_tracks_the_reference(
    small_complex, bonded_complex, batch, cutoff, bonded
):
    """The registry's "cutoff" method (the Verlet scorer at skin 0)
    stays within ``DRIFT_REL_BOUND`` of the independently written
    reference on generated poses, scores ``nan`` exactly where it does,
    and its ``score`` walk equals a fresh scorer's ``score_batch`` bit
    for bit -- with and without receptor H-bond directions."""
    built = bonded_complex if bonded else small_complex
    rec = built.receptor
    lig = built.ligand_crystal
    cb = _make_batch(built, cutoff, *batch)
    walk = make_scorer("cutoff", rec, lig, cutoff=cutoff)
    got = np.array([walk.score(p) for p in cb])
    jump = make_scorer("cutoff", rec, lig, cutoff=cutoff).score_batch(cb)
    assert jump.tobytes() == got.tobytes()
    ref = CutoffReference(rec, lig, cutoff=cutoff)
    want = np.array([ref.score(p) for p in cb])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    rel = np.abs(got[ok] - want[ok]) / np.maximum(1.0, np.abs(want[ok]))
    assert (rel <= DRIFT_REL_BOUND).all(), rel.max()


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
    ``score_batch`` and ``score_pose_group`` reproduce ``score``'s
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
    got = score_pose_group(list(zip(group, mixed)))
    assert np.array_equal(got, np.array(ref))
    assert [sc.near_fraction for sc in group] == near
    assert [sc.outer_fraction for sc in group] == outer


def test_field_batch_bitwise_across_chunks(small_complex, rng, monkeypatch):
    """A batch split into several fused chunks still reproduces
    ``score``'s floats, and its histograms observe once per pose."""
    import repro.scoring.field as field_mod

    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    m = lig.n_atoms
    _, _, _, mixed = _pose_batches(small_complex, rng)
    shell, straddle = _shell_batches(small_complex, rng)
    cb = np.concatenate([mixed, shell, straddle])
    k = cb.shape[0]
    # Four ligands' worth of rows (plus a partial one): 4 poses a chunk.
    monkeypatch.setattr(field_mod, "_BATCH_CHUNK_ROWS", 4 * m + m // 2)
    chunks = []
    fused = field_mod._fused_scores

    def spy(scorers, pts, sizes):
        chunks.append(len(sizes))
        return fused(scorers, pts, sizes)

    batch = FieldScorer(rec, lig)
    batch.metrics = MetricsRegistry()
    monkeypatch.setattr(field_mod, "_fused_scores", spy)
    got = batch.score_batch(cb)
    assert chunks == [4, 4, 4, 1]

    single = FieldScorer(rec, lig)
    ref = np.array([single.score(p) for p in cb])
    assert np.array_equal(got, ref)
    assert batch.near_fraction == single.near_fraction
    assert batch.outer_fraction == single.outer_fraction
    for name in (NEAR_FRACTION_METRIC, OUTER_FRACTION_METRIC):
        assert batch.metrics.get(name).count == k


def test_score_pose_group_heterogeneous_shared_maps(small_complex, rng):
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
    got = score_pose_group(entries)
    assert scorers[1].outer_fraction > 0.0
    ref = np.array(
        [
            FieldScorer(rec, sc.ligand, cells=maps).score(pose)
            for sc, pose in entries
        ]
    )
    assert np.array_equal(got, ref)


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
