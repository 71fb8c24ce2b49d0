"""Incremental Verlet-list scorer: equivalence, rebuild cadence, plumbing.

The load-bearing properties (see ``repro/scoring/incremental.py``):

- trajectory equivalence with the independently written cutoff
  reference (``tests/cutoff_reference.py``) *across rebuild
  boundaries* to the documented :data:`DRIFT_REL_BOUND`, at the
  default skin and at skin 0 (the registry's "cutoff" method);
- bit-stable cache independence — a warm scorer and a fresh scorer
  agree bitwise at every pose (checkpoint safety: the pair list is
  derived state);
- rebuilds happen exactly when the max ligand displacement since the
  last build exceeds skin/2;
- end-to-end wiring: factory, config, envs, CLI, telemetry, and
  interrupt/resume through the figure4 trainer stack.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ci_scale_config
from repro.env.docking_env import DockingEnv
from repro.env.factory import make_env
from repro.metadock.engine import MetadockEngine
from repro.scoring.incremental import (
    ACTIVE_PAIRS_METRIC,
    DEFAULT_SKIN,
    DRIFT_REL_BOUND,
    REBUILDS_METRIC,
    IncrementalScorer,
)
from repro.scoring import incremental, neighborlist
from repro.scoring.neighborlist import CellList, candidate_pairs
from repro.scoring.scorers import (
    SCORING_METHODS,
    ExactScorer,
    make_scorer,
    receptor_cache,
)
from tests.cutoff_reference import CutoffReference, query_pairs


@pytest.fixture(scope="module")
def pair(small_complex):
    lig = small_complex.ligand_crystal
    template = lig.with_coords(lig.coords - lig.centroid())
    return small_complex.receptor, template, lig.coords


def _fresh(rec, template, **kw) -> IncrementalScorer:
    kw.setdefault("cutoff", 10.0)
    kw.setdefault("skin", 2.0)
    return IncrementalScorer(rec, template, **kw)


# ---------------------------------------------------------------------------
# vectorized multi-center query


def _csr_query_pairs(pts, cell_size, probes, r):
    """Frozen copy of the cell-enumeration query this module replaced.

    Kept as the index-for-index reference: occupied-cell CSR tables,
    a dense (k, span^3) block of candidate cells per probe resolved
    with ``searchsorted``, CSR expansion, exact distance filter.
    """
    pts = np.ascontiguousarray(pts, dtype=float)
    probes = np.asarray(probes, dtype=float).reshape(-1, 3)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if len(probes) == 0 or len(pts) == 0:
        return empty
    origin = pts.min(axis=0) - 1e-9
    idx3 = np.floor((pts - origin) / cell_size).astype(np.int64)
    dims = idx3.max(axis=0) + 1

    def flatten(i3):
        return (i3[..., 0] * dims[1] + i3[..., 1]) * dims[2] + i3[..., 2]

    flat = flatten(idx3)
    order = np.argsort(flat, kind="stable")
    unique_flat, starts = np.unique(flat[order], return_index=True)
    ends = np.append(starts[1:], len(flat))
    lo = np.floor((probes - r - origin) / cell_size).astype(np.int64)
    hi = np.floor((probes + r - origin) / cell_size).astype(np.int64)
    span = int((hi - lo).max()) + 1
    ax = np.arange(span, dtype=np.int64)
    off = np.stack(
        np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    cells = lo[:, None, :] + off[None, :, :]
    valid = (
        (cells >= 0) & (cells < dims) & (cells <= hi[:, None, :])
    ).all(axis=2)
    cflat = flatten(cells)
    pos = np.searchsorted(unique_flat, cflat)
    np.minimum(pos, len(unique_flat) - 1, out=pos)
    found = valid & (unique_flat[pos] == cflat)
    cstart = np.where(found, starts[pos], 0).reshape(-1)
    counts = np.where(found, ends[pos] - starts[pos], 0).reshape(-1)
    total = int(counts.sum())
    if total == 0:
        return empty
    cum = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    rank = np.arange(total, dtype=np.int64)
    rank -= np.repeat(cum, counts)
    rank += np.repeat(cstart, counts)
    cand = np.take(order, rank)
    slot = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    probe_of = slot // off.shape[0]
    diff = np.take(pts, cand, axis=0)
    diff -= np.take(probes, probe_of, axis=0)
    keep = np.einsum("ij,ij->i", diff, diff) <= r * r
    return np.compress(keep, cand), np.compress(keep, probe_of)


@st.composite
def _point_sets(draw, min_points=0, min_probes=0):
    """(points, cell_size, probes, radius), optionally lattice-rounded.

    On the integer lattice with an integer radius many pairs sit at
    *exactly* the query radius and many points share a cell boundary --
    the ties a rounding-margin superset and a cell sort must not
    reorder or drop.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_points, 120))
    k = draw(st.integers(min_probes, 6))
    extent = draw(st.floats(1.0, 8.0))
    spread = draw(st.floats(0.0, 10.0))
    cell_size = draw(st.floats(0.5, 5.0))
    radius = draw(st.floats(0.3, 12.0))
    pts = rng.normal(size=(n, 3)) * extent
    probes = rng.normal(size=(k, 3)) * spread + rng.normal(size=3) * extent
    if draw(st.booleans()):
        pts, probes, radius = np.round(pts), np.round(probes), np.ceil(radius)
    return pts, cell_size, probes, float(radius)


class TestQueryPairs:
    @settings(max_examples=60, deadline=None)
    @given(_point_sets())
    def test_matches_frozen_csr_reference(self, case):
        pts, cell_size, probes, r = case
        s_idx, p_idx = query_pairs(CellList(pts, cell_size), probes, r)
        want_s, want_p = _csr_query_pairs(pts, cell_size, probes, r)
        assert s_idx.dtype == want_s.dtype and p_idx.dtype == want_p.dtype
        assert np.array_equal(s_idx, want_s)
        assert np.array_equal(p_idx, want_p)

    @settings(max_examples=60, deadline=None)
    @given(_point_sets())
    def test_matches_brute_force(self, case):
        pts, cell_size, probes, r = case
        s_idx, p_idx = query_pairs(CellList(pts, cell_size), probes, r)
        got = set(zip(s_idx.tolist(), p_idx.tolist()))
        assert len(got) == s_idx.size  # no duplicates
        want = {
            (int(i), kk)
            for kk in range(len(probes))
            for i in np.nonzero(
                ((pts - probes[kk]) ** 2).sum(axis=1) <= r * r
            )[0]
        }
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(_point_sets(min_points=1, min_probes=1))
    def test_probe_major_canonical_order(self, case):
        # Lexicographic in (probe, flat cell id, stored index).
        pts, cell_size, probes, r = case
        cl = CellList(pts, cell_size)
        s_idx, p_idx = query_pairs(cl, probes, r)
        cell = cl._flatten(
            np.floor((pts - cl.origin) / cl.cell_size).astype(np.int64)
        )
        keys = list(zip(p_idx.tolist(), cell[s_idx].tolist(), s_idx.tolist()))
        assert keys == sorted(keys)

    @settings(max_examples=60, deadline=None)
    @given(_point_sets())
    def test_candidate_pairs_is_order_preserving_superset(self, case):
        pts, cell_size, probes, r = case
        cl = CellList(pts, cell_size)
        c_s, c_p = candidate_pairs(cl, probes, r)
        q_s, q_p = query_pairs(cl, probes, r)
        d2 = ((pts[c_s] - probes[c_p]) ** 2).sum(axis=1)
        keep = d2 <= r * r
        # Dropping the beyond-radius extras leaves query_pairs' arrays
        # as they are ...
        assert np.array_equal(c_s[keep], q_s)
        assert np.array_equal(c_p[keep], q_p)
        # ... and the extras are beyond it by rounding only.
        assert (np.sqrt(d2[~keep]) <= r + 1e-6).all()

    @settings(max_examples=40, deadline=None)
    @given(_point_sets(min_points=1, min_probes=2), st.integers(1, 40))
    def test_chunked_equals_unchunked(self, case, budget):
        pts, cell_size, probes, r = case
        cl = CellList(pts, cell_size)
        whole = candidate_pairs(cl, probes, r)
        with pytest.MonkeyPatch.context() as mp:
            # A few probe rows (down to one) per distance block.
            mp.setattr(neighborlist, "_BLOCK_ELEMENTS", budget)
            chunked = candidate_pairs(cl, probes, r)
        assert np.array_equal(chunked[0], whole[0])
        assert np.array_equal(chunked[1], whole[1])

    @settings(max_examples=40, deadline=None)
    @given(_point_sets(min_points=1, min_probes=1))
    def test_order_independent_of_other_probes(self, case):
        # The per-probe pair sequence must not depend on which other
        # probes ride along in the same call (the canonical-order
        # property the incremental scorer's bit-stability rests on).
        pts, cell_size, probes, r = case
        cl = CellList(pts, cell_size)
        s_all, p_all = query_pairs(cl, probes, r)
        for k in range(len(probes)):
            s_one, _ = query_pairs(cl, probes[k : k + 1], r)
            assert np.array_equal(s_all[p_all == k], s_one)

    def test_empty_inputs(self):
        for query in (query_pairs, candidate_pairs):
            cl = CellList(np.zeros((0, 3)), cell_size=1.0)
            s, p = query(cl, np.zeros((2, 3)), 1.0)
            assert s.size == 0 and p.size == 0
            cl2 = CellList(np.zeros((3, 3)), cell_size=1.0)
            s, p = query(cl2, np.zeros((0, 3)), 1.0)
            assert s.size == 0 and p.size == 0
            # Nothing in reach of the probes' ball.
            s, p = query(cl2, np.full((2, 3), 50.0), 1.0)
            assert s.size == 0 and p.size == 0
            assert s.dtype == np.int64 and p.dtype == np.int64

    def test_cost_independent_of_radius_over_cell_size(self, rng):
        # The cell enumeration paid (2 * radius / cell_size)^3 cells per
        # probe: 1.25e8 here (66 s and gigabytes).
        pts = rng.normal(size=(50, 3)) * 5.0
        cl = CellList(pts, cell_size=2.0)
        probes = rng.normal(size=(4, 3)) * 4.0
        t0 = time.perf_counter()
        s_idx, p_idx = query_pairs(cl, probes, 500.0)
        assert time.perf_counter() - t0 < 1.0
        assert np.array_equal(p_idx, np.repeat(np.arange(4), 50))
        assert np.array_equal(s_idx, np.tile(cl.order, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probe_raises(self, rng, bad):
        cl = CellList(rng.normal(size=(20, 3)), cell_size=1.0)
        probes = rng.normal(size=(3, 3))
        probes[1, 2] = bad
        for query in (query_pairs, candidate_pairs):
            with pytest.raises(ValueError, match="finite"):
                query(cl, probes, 2.0)


# ---------------------------------------------------------------------------
# trajectory equivalence across rebuild boundaries


class TestTrajectoryEquivalence:
    def _walk(self, rec, template, coords, moves, tol=DRIFT_REL_BOUND):
        """Score a pose sequence with incremental vs cutoff reference."""
        inc = _fresh(rec, template)
        ref = CutoffReference(rec, template, cutoff=10.0)
        pose = coords.copy()
        worst = 0.0
        for mv in moves:
            pose = mv(pose)
            si, sc = inc.score(pose), ref.score(pose)
            worst = max(worst, abs(si - sc) / max(1.0, abs(sc)))
        assert worst <= tol, worst
        return inc

    def test_long_shift_run_crosses_rebuilds(self, pair, rng):
        rec, template, coords = pair
        moves = []
        for _ in range(80):
            step = rng.normal(size=3)
            step /= np.linalg.norm(step)
            moves.append(lambda p, s=step: p + 0.8 * s)
        inc = self._walk(rec, template, coords, moves)
        # 80 x 0.8 A steps against a 2 A skin must re-list many times.
        assert inc.rebuild_count >= 5

    def test_rotation_only_trajectory(self, pair, rng):
        rec, template, coords = pair

        def rot(p, axis, ang):
            axis = axis / np.linalg.norm(axis)
            c, s = np.cos(ang), np.sin(ang)
            centroid = p.mean(axis=0)
            rel = p - centroid
            return (
                centroid
                + rel * c
                + np.cross(axis, rel) * s
                + np.outer(rel @ axis, axis) * (1 - c)
            )

        moves = [
            (lambda p, a=rng.normal(size=3): rot(p, a, np.radians(4.0)))
            for _ in range(60)
        ]
        self._walk(rec, template, coords, moves)

    def test_torsion_actions_via_flex_engine(self, small_complex):
        eng = MetadockEngine(
            small_complex,
            shift_length=0.8,
            rotation_angle_deg=5.0,
            n_torsions=2,
            scoring_method="incremental",
            scoring_kwargs={"cutoff": 10.0, "skin": 2.0},
        )
        ref = CutoffReference(eng.receptor, eng.template, cutoff=10.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            eng.apply_action(int(rng.integers(0, eng.n_actions)))
            si = eng.score()
            sc = ref.score(eng.ligand_coords())
            assert abs(si - sc) <= DRIFT_REL_BOUND * max(1.0, abs(sc))

    def test_env_episode_with_sphere_exit(self, small_complex):
        # Drive a real DockingEnv on the incremental scorer straight out
        # of the escape sphere; per-step scores must track the cutoff
        # reference the whole way and the episode must terminate.
        eng = MetadockEngine(
            small_complex,
            shift_length=0.8,
            rotation_angle_deg=5.0,
            scoring_method="incremental",
            scoring_kwargs={"cutoff": 10.0, "skin": 2.0},
        )
        env = DockingEnv(eng)
        ref = CutoffReference(eng.receptor, eng.template, cutoff=10.0)
        env.reset()
        done = False
        for _ in range(200):
            _, _, done, info = env.step(0)  # march along +x
            sc = ref.score(eng.ligand_coords())
            assert abs(info["score"] - sc) <= DRIFT_REL_BOUND * max(
                1.0, abs(sc)
            )
            if done:
                break
        assert done and info["termination"] == "escape"
        assert eng.scorer.rebuild_count >= 2

    @pytest.mark.parametrize("cutoff", [8.0, 12.0])
    def test_cutoff_method_on_paper_complex(self, cutoff):
        # The registry's "cutoff" method (skin 0) on the 2BSM complex:
        # a 300-step walk of Table 1 moves and 150 scattered poses stay
        # inside the drift bound of the reference, every moved pose
        # rebuilds, and score() is score_batch() bit for bit.
        from repro.chem.builders import build_complex
        from repro.config import ComplexConfig

        built = build_complex(ComplexConfig())
        rec, lig = built.receptor, built.ligand_initial
        base = built.ligand_crystal.coords
        centre = base.mean(axis=0)
        rng = np.random.default_rng(34)
        poses, pose = [], base
        for _ in range(300):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            if rng.random() < 0.5:
                pose = pose + u  # a 1 A shift
            else:  # a 0.5 degree rotation about the centroid (Rodrigues)
                k = np.cross(np.eye(3), u)
                a = np.radians(0.5)
                rot = np.eye(3) + np.sin(a) * k + (1 - np.cos(a)) * k @ k
                c = pose.mean(axis=0)
                pose = (pose - c) @ rot.T + c
            poses.append(pose)
        for _ in range(150):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            poses.append(
                (base - centre) @ q + centre + rng.normal(scale=4.0, size=3)
            )
        poses = np.array(poses)
        scorer = make_scorer("cutoff", rec, lig, cutoff=cutoff)
        ref = CutoffReference(rec, lig, cutoff=cutoff)
        got = np.array([scorer.score(p) for p in poses])
        want = np.array([ref.score(p) for p in poses])
        assert scorer.skin == 0.0 and scorer.rebuild_count == len(poses)
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert rel.max() <= DRIFT_REL_BOUND, rel.max()
        assert np.abs(want).max() > 1e10  # clash poses are in the set
        batch = make_scorer("cutoff", rec, lig, cutoff=cutoff)
        assert batch.score_batch(poses).tobytes() == got.tobytes()

    def test_converges_to_exact_with_cutoff(self, pair):
        rec, template, coords = pair
        exact = ExactScorer(rec, template).score(coords)
        full = IncrementalScorer(
            rec, template, cutoff=1000.0, skin=2.0, shifted=False
        ).score(coords)
        assert full == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# bit-stability: the cache is derived state


class TestCacheIndependence:
    def test_warm_equals_fresh_bitwise(self, pair, rng):
        rec, template, coords = pair
        warm = _fresh(rec, template)
        pose = coords.copy()
        for _ in range(40):
            pose = pose + rng.normal(scale=0.35, size=pose.shape)
            a = warm.score(pose)
            b = _fresh(rec, template).score(pose)
            assert a == b  # bitwise, not approx

    def test_mid_skin_pose_bitwise(self, pair):
        # A pose strictly inside the skin (no rebuild on the warm
        # scorer, immediate build on the fresh one) is the adversarial
        # case: the two scorers reduce over lists built at different
        # centers.
        rec, template, coords = pair
        warm = _fresh(rec, template)
        warm.score(coords)
        drifted = coords + 0.3  # < skin/2 = 1.0
        before = warm.rebuild_count
        a = warm.score(drifted)
        assert warm.rebuild_count == before  # served from cache
        assert a == _fresh(rec, template).score(drifted)

    def test_score_batch_matches_singles(self, pair, rng):
        rec, template, coords = pair
        batch = coords[None] + rng.normal(scale=0.8, size=(6, 1, 3))
        a = _fresh(rec, template).score_batch(batch)
        b = np.array(
            [_fresh(rec, template).score(c) for c in batch]
        )
        assert np.array_equal(a, b)

    def test_jump_heavy_stream_bitwise(self, pair, monkeypatch):
        # The scatter search's mix: mostly jumps to unrelated poses
        # (each one a list build) with a few small moves scored off the
        # list in between.  The warm scorer builds its list from
        # candidate_pairs with the rounding margin blown up until the
        # superset visibly overshoots; an exact-list twin (its build
        # goes through query_pairs) and a cold scorer per pose must see
        # the same floats, rebuild decisions and active-pair counts.
        rec, template, coords = pair
        rng = np.random.default_rng(2018)
        warm, twin = _fresh(rec, template), _fresh(rec, template)
        centre = coords.mean(axis=0)
        pose, builds, extras = coords, 0, 0
        for step in range(120):
            if step % 4 == 0 or rng.random() < 0.7:
                q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                pose = (
                    (coords - centre) @ q
                    + centre
                    + rng.normal(scale=3.0, size=3)
                )
            else:
                pose = pose + rng.normal(scale=0.15, size=pose.shape)
            before = warm.rebuild_count
            with monkeypatch.context() as mp:
                mp.setattr(neighborlist, "_ROUNDING_MARGIN", 1e-2)
                a = warm.score(pose)
            with monkeypatch.context() as mp:
                mp.setattr(incremental, "candidate_pairs", query_pairs)
                assert a == twin.score(pose)
            cold = _fresh(rec, template)
            assert a == cold.score(pose)
            assert warm.active_pairs == twin.active_pairs
            assert warm.active_pairs == cold.active_pairs
            assert warm.rebuild_count == twin.rebuild_count
            if warm.rebuild_count > before:
                builds += 1
                assert warm._n_pairs >= twin._n_pairs
                extras += warm._n_pairs - twin._n_pairs
        # Jump-heavy, but not every pose: the small moves reuse a list.
        assert 0.6 * 120 <= builds < 120
        assert extras > 0

    def test_zero_pairs_scores_zero(self, pair):
        rec, template, coords = pair
        inc = _fresh(rec, template)
        assert inc.score(coords + 500.0) == 0.0
        assert inc.active_pairs == 0


# ---------------------------------------------------------------------------
# rebuild cadence (skin semantics)


class TestRebuildCadence:
    def test_no_rebuild_inside_half_skin(self, pair):
        rec, template, coords = pair
        inc = _fresh(rec, template)  # skin 2.0 -> budget 1.0
        inc.score(coords)
        assert inc.rebuild_count == 1
        inc.score(coords + [0.9, 0.0, 0.0])
        inc.score(coords + [0.0, -0.9, 0.0])  # displacement from ref
        assert inc.rebuild_count == 1

    def test_rebuild_beyond_half_skin(self, pair):
        rec, template, coords = pair
        inc = _fresh(rec, template)
        inc.score(coords)
        inc.score(coords + [1.1, 0.0, 0.0])
        assert inc.rebuild_count == 2

    def test_single_atom_displacement_triggers(self, pair):
        # The budget is per-atom max displacement, not the centroid's.
        rec, template, coords = pair
        inc = _fresh(rec, template)
        inc.score(coords)
        moved = coords.copy()
        moved[0] += [0.0, 0.0, 1.2]
        inc.score(moved)
        assert inc.rebuild_count == 2

    def test_validation(self, pair):
        rec, template, coords = pair
        for bad in (0.0, float("nan")):
            with pytest.raises(ValueError, match="cutoff"):
                IncrementalScorer(rec, template, cutoff=bad)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="skin"):
                IncrementalScorer(rec, template, skin=bad)
        inc = _fresh(rec, template)
        with pytest.raises(ValueError, match="shape"):
            inc.score(coords[:3])
        with pytest.raises(ValueError, match="coords_batch"):
            inc.score_batch(coords)


# ---------------------------------------------------------------------------
# factory / config / env / CLI plumbing


class TestPlumbing:
    def test_factory(self, pair):
        rec, template, _ = pair
        s = make_scorer("incremental", rec, template, cutoff=9.0, skin=1.5)
        assert isinstance(s, IncrementalScorer)
        assert s.cutoff == 9.0 and s.skin == 1.5
        assert "incremental" in SCORING_METHODS

    def test_cutoff_method_is_skin_zero(self, pair):
        rec, template, coords = pair
        s = make_scorer("cutoff", rec, template, cutoff=9.0)
        assert isinstance(s, IncrementalScorer)
        assert s.cutoff == 9.0 and s.skin == 0.0
        assert s._cells.cell_size == 4.5
        s.score(coords)
        s.score(coords)  # the same pose reuses its list
        assert s.rebuild_count == 1
        s.score(coords + [1e-9, 0.0, 0.0])  # any move rebuilds
        assert s.rebuild_count == 2
        with pytest.raises(ValueError, match="accepts no kwarg 'skin'"):
            make_scorer("cutoff", rec, template, skin=0.0)

    @pytest.mark.parametrize(
        "cells, method, error, match",
        [
            pytest.param("x", "incremental", TypeError, "CellList", id="str"),
            pytest.param(
                "other-receptor", "incremental", ValueError,
                "other points", id="other-receptor",
            ),
            pytest.param(
                "cutoff", "incremental", ValueError, "cell_size",
                id="cutoff-cache-to-incremental",
            ),
            pytest.param(
                "incremental", "cutoff", ValueError, "cell_size",
                id="incremental-cache-to-cutoff",
            ),
        ],
    )
    def test_cells_checked_at_construction(
        self, pair, cells, method, error, match
    ):
        # A wrong cache fails when the scorer is built, not at the first
        # score -- and never scores in another pair order silently.
        rec, template, coords = pair
        if cells == "other-receptor":
            cells = CellList(rec.coords + [0.5, 0.0, 0.0], 5.0)
        elif cells in SCORING_METHODS:
            cells = receptor_cache(cells, rec)
        with pytest.raises(error, match=match):
            make_scorer(method, rec, template, cells=cells)

    def test_config_validates_against_factory_methods(self):
        # The config validates against the scorer registry.
        for method in SCORING_METHODS:
            ci_scale_config(episodes=1, scoring_method=method)
        with pytest.raises(ValueError, match="unknown scoring method"):
            ci_scale_config(episodes=1, scoring_method="verlet")

    def test_make_env_wires_scorer(self, small_complex):
        cfg = ci_scale_config(
            episodes=1,
            scoring_method="incremental",
            scoring_kwargs={"cutoff": 9.0},
        )
        env = make_env(cfg, small_complex)
        assert isinstance(env.engine.scorer, IncrementalScorer)
        assert env.engine.scorer.cutoff == 9.0
        assert env.engine.scorer.skin == DEFAULT_SKIN

    def test_make_flexible_env_wires_scorer(self, small_complex):
        cfg = ci_scale_config(episodes=1, scoring_method="incremental")
        env = make_env(cfg, small_complex, kind="flexible")
        assert isinstance(env.engine.scorer, IncrementalScorer)

    def test_cli_accepts_scoring_method(self):
        from repro.cli import build_parser

        p = build_parser()
        args = p.parse_args(
            ["figure4", "--scoring-method", "incremental"]
        )
        assert args.scoring_method == "incremental"
        args = p.parse_args(
            ["curriculum", "--scoring-method", "cutoff"]
        )
        assert args.scoring_method == "cutoff"
        with pytest.raises(SystemExit):
            p.parse_args(["figure4", "--scoring-method", "verlet"])


# ---------------------------------------------------------------------------
# telemetry


class TestTelemetry:
    def test_counter_gauge_and_span(self, small_complex):
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.spans import SpanTracer

        eng = MetadockEngine(
            small_complex,
            shift_length=0.8,
            scoring_method="incremental",
            scoring_kwargs={"cutoff": 10.0, "skin": 2.0},
        )
        reg, tr = MetricsRegistry(), SpanTracer()
        eng.metrics = reg
        eng.tracer = tr
        assert eng.scorer.metrics is reg and eng.scorer.tracer is tr
        rng = np.random.default_rng(3)
        eng.reset(observe=False)
        for _ in range(30):
            eng.apply_action(int(rng.integers(0, 12)))
            eng.score()
        assert eng.scorer.rebuild_count >= 1
        assert (
            reg.get(REBUILDS_METRIC).value == eng.scorer.rebuild_count
        )
        assert reg.get(ACTIVE_PAIRS_METRIC).value == eng.scorer.active_pairs
        report = str(tr.report())
        assert "neighborlist-rebuild" in report

    def test_exact_scorer_ignores_telemetry_hooks(self, small_complex):
        # Setting engine telemetry with a scorer that has no hooks is a
        # silent no-op (the hasattr guard), not an error.
        eng = MetadockEngine(small_complex, scoring_method="exact")
        eng.metrics = object()
        eng.tracer = None
        assert eng.metrics is not None


# ---------------------------------------------------------------------------
# satellite exact-equality pins


class TestSatelliteEquality:
    def test_exact_scorer_cached_tables_bitwise(self, pair, rng):
        from repro.scoring.composite import (
            interaction_score,
            score_pose_batch,
        )

        rec, template, coords = pair
        scorer = ExactScorer(rec, template)
        for _ in range(5):
            pose = coords + rng.normal(scale=1.0, size=coords.shape)
            assert scorer.score(pose) == interaction_score(
                rec, template.with_coords(pose)
            )
        batch = coords[None] + rng.normal(scale=1.0, size=(4, 1, 3))
        assert np.array_equal(
            scorer.score_batch(batch),
            score_pose_batch(rec, template, batch),
        )

    def test_cutoff_batch_bitwise(self, pair, rng):
        rec, template, coords = pair
        scorer = make_scorer("cutoff", rec, template, cutoff=10.0)
        batch = np.concatenate(
            [
                coords[None] + rng.normal(scale=1.0, size=(4, 1, 3)),
                coords[None] + 500.0,  # zero-pair pose mixed in
            ]
        )
        singles = np.array([scorer.score(c) for c in batch])
        assert np.array_equal(scorer.score_batch(batch), singles)

    def test_batch_shape_validation(self, pair):
        rec, template, coords = pair
        for scorer in (
            make_scorer("cutoff", rec, template, cutoff=10.0),
            IncrementalScorer(rec, template, cutoff=10.0),
        ):
            with pytest.raises(ValueError, match="coords_batch"):
                scorer.score_batch(coords)


# ---------------------------------------------------------------------------
# interrupt/resume bit-stability through the trainer stack


class TestIncrementalResume:
    def test_interrupt_resume_bit_exact(self, tmp_path):
        from repro.experiments.figure4 import build_agent_for_env
        from repro.rl.trainer import Trainer
        from repro.runtime import (
            RunInterrupted,
            RunLoop,
            RuntimeContext,
            ShutdownGuard,
        )

        cfg = ci_scale_config(
            episodes=5,
            seed=3,
            max_steps=12,
            scoring_method="incremental",
            scoring_kwargs={"cutoff": 10.0, "skin": 2.0},
        )

        def make_trainer(on_episode_end=None):
            env = make_env(cfg)
            agent = build_agent_for_env(cfg, env)
            return env, agent, Trainer(
                env,
                agent,
                episodes=cfg.episodes,
                max_steps_per_episode=cfg.max_steps_per_episode,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
                on_episode_end=on_episode_end,
            )

        rt_a = RuntimeContext(tmp_path / "a", checkpoint_every=2)
        env, agent_a, trainer = make_trainer()
        hist_a = RunLoop(rt_a, phase="t").run_episodes(trainer)
        env.close()

        guard = ShutdownGuard()

        def on_end(stats):
            if stats.episode == 2:
                guard.request_stop()

        rt_b = RuntimeContext(
            tmp_path / "b", checkpoint_every=2, guard=guard
        )
        env, _, trainer_b = make_trainer(on_episode_end=on_end)
        with pytest.raises(RunInterrupted):
            RunLoop(rt_b, phase="t").run_episodes(trainer_b)
        env.close()

        # Resume in a fresh stack: the scorer starts with a cold Verlet
        # cache, which must not perturb a single float.
        rt_c = RuntimeContext(tmp_path / "b", checkpoint_every=2)
        env, agent_c, trainer_c = make_trainer()
        hist_b = RunLoop(rt_c, phase="t").run_episodes(trainer_c)
        env.close()

        assert hist_a.total_steps == hist_b.total_steps
        assert len(hist_a.episodes) == len(hist_b.episodes)
        for ea, eb in zip(hist_a.episodes, hist_b.episodes):
            da, db = dataclasses.asdict(ea), dataclasses.asdict(eb)
            assert set(da) == set(db)
            for k in da:
                va, vb = da[k], db[k]
                if isinstance(va, float) and va != va:
                    assert vb != vb, (k, va, vb)
                else:
                    assert va == vb, (k, va, vb)
        sa, sc = agent_a.state_dict(), agent_c.state_dict()

        def deep_equal(a, b):
            if isinstance(a, dict):
                assert set(a) == set(b)
                for k in a:
                    deep_equal(a[k], b[k])
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True)
            else:
                assert a == b or (a != a and b != b)

        deep_equal(sa, sc)
