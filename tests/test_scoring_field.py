"""Hybrid field scorer: two-regime accuracy, bit-stability, plumbing.

The load-bearing properties (see ``repro/scoring/field.py``):

- in-box poses track the exact scorer to a small interpolation drift
  of the *clipped* fields -- overlapping pairs (the clash terms) are
  rescored exactly, so deep-clash scores agree to relative rounding;
  fully out-of-box poses match :class:`ExactScorer` *bitwise*;
- the clash-voxel candidate mask is a conservative superset: every
  atom within ``clash_radius`` of any receptor atom is flagged, so
  every overlapping pair receives its exact correction;
- maps are derived state -- shared (warm) and private (cold) builds
  agree bitwise in any ensure() order, so checkpoint resume under
  ``--scoring-method field`` cannot perturb a float;
- the coarse outer level covers the env's whole escape ball, so shell
  atoms (outside the fine box) are interpolated too and a random walk
  from the start pose stays inside the documented drift budget;
- end-to-end wiring: factory, config, envs, CLI, telemetry, and
  interrupt/resume through the figure4 trainer stack.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.chem.builders import build_complex
from repro.config import ComplexConfig, DQNDockingConfig, ci_scale_config
from repro.env.factory import make_env
from repro.scoring.field import (
    FIELD_BYTES_METRIC,
    FIELD_CALM_STEP_BOUND,
    NEAR_FRACTION_METRIC,
    OUTER_FRACTION_METRIC,
    FieldMaps,
    FieldScorer,
)
from repro.scoring.scorers import (
    SCORING_METHODS,
    ExactScorer,
    make_scorer,
)

#: Coarser-than-default lattice for tests: the small-complex box stays
#: tiny, builds stay ~ms, and the drift bounds below are still met.
SPACING = 0.5
#: Smaller-than-default box padding for the same reason (the default
#: is sized for full-length 2BSM docking trajectories).
PADDING = 6.0
#: Absolute drift bound vs exact at SPACING on calm poses of the
#: 120+10 test complex (measured worst ~3.5 -- interpolation of the
#: clipped fields; see field.py for the 2BSM-scale budget).
CALM_TOL = 6.0
#: Relative drift bound on larger-|score| poses: the dominating clash
#: terms come from the exact pair corrections, so drift stays a tiny
#: fraction of the total (measured ~1e-12 on deep clashes).
REL_TOL = 1e-4


@pytest.fixture(scope="module")
def pair(small_complex):
    lig = small_complex.ligand_crystal
    template = lig.with_coords(lig.coords - lig.centroid())
    return small_complex.receptor, template, lig.coords


@pytest.fixture(scope="module")
def scorers(pair):
    rec, template, _ = pair
    return (
        FieldScorer(rec, template, spacing=SPACING, padding=PADDING),
        ExactScorer(rec, template),
    )


def _rot(p, axis, ang):
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


def _drift_ok(se: float, sf: float) -> bool:
    """Within budget: absolute on calm poses, relative on huge ones."""
    return abs(se - sf) <= max(CALM_TOL, REL_TOL * abs(se))


# ---------------------------------------------------------------------------
# two-regime accuracy vs the exact scorer


class TestAccuracy:
    def test_random_jittered_poses(self, scorers, pair, rng):
        fld, exact = scorers
        _, _, coords = pair
        for _ in range(30):
            pose = coords + rng.normal(
                scale=0.5, size=coords.shape
            ) + rng.normal(scale=2.0, size=(1, 3))
            assert _drift_ok(exact.score(pose), fld.score(pose))

    def test_rotation_trajectory(self, scorers, pair, rng):
        fld, exact = scorers
        _, _, coords = pair
        pose = coords.copy()
        for _ in range(40):
            pose = _rot(pose, rng.normal(size=3), np.radians(5.0))
            assert _drift_ok(exact.score(pose), fld.score(pose))

    def test_torsion_actions_via_flex_engine(self, small_complex):
        from repro.metadock.engine import MetadockEngine

        eng = MetadockEngine(
            small_complex,
            shift_length=0.8,
            rotation_angle_deg=5.0,
            n_torsions=2,
            scoring_method="field",
            scoring_kwargs={"spacing": SPACING, "padding": PADDING},
        )
        ref = ExactScorer(eng.receptor, eng.template)
        rng = np.random.default_rng(5)
        for _ in range(40):
            eng.apply_action(int(rng.integers(0, eng.n_actions)))
            assert _drift_ok(ref.score(eng.ligand_coords()), eng.score())

    def test_deep_clash_tracks_exact(self, scorers, pair):
        # The clash-dominating overlap pairs are computed exactly, so
        # a deep clash agrees to relative float rounding (|score| is
        # ~1e15 here; only the smooth interpolated remainder differs).
        fld, exact = scorers
        rec, template, coords = pair
        clash = coords - coords.mean(axis=0) + rec.coords[0]
        se, sf = exact.score(clash), fld.score(clash)
        assert abs(se - sf) <= 1e-7 * abs(se)
        assert fld.near_fraction > 0.5

    def test_out_of_box_bitwise_exact(self, scorers, pair):
        # No silent boundary clamp: fully out-of-box poses are exact.
        fld, exact = scorers
        _, _, coords = pair
        assert fld.score(coords + 500.0) == exact.score(coords + 500.0)
        assert fld.near_fraction == 1.0

    def test_straddling_pose(self, scorers, pair):
        # Some atoms out of box, some far-field in box.
        fld, exact = scorers
        _, _, coords = pair
        pose = coords.copy()
        pose[: pose.shape[0] // 2] += 500.0
        assert _drift_ok(exact.score(pose), fld.score(pose))
        assert 0.0 < fld.near_fraction < 1.0

    def test_error_shrinks_with_spacing(self, pair, rng):
        # Compared on poses hovering off the surface so the result is
        # interpolation-dominated (a coarser lattice also dilates the
        # near mask, which would otherwise mask its own error).
        rec, template, coords = pair
        exact = ExactScorer(rec, template)
        ring = coords - coords.mean(axis=0)
        ring = ring + rec.coords.mean(axis=0) + [0.0, 0.0, 10.0]
        poses = [
            ring + rng.normal(scale=0.3, size=ring.shape)
            for _ in range(10)
        ]
        errs = {}
        for spacing in (1.0, 0.25):
            fld = FieldScorer(rec, template, spacing=spacing, padding=PADDING)
            errs[spacing] = np.mean(
                [abs(fld.score(p) - exact.score(p)) for p in poses]
            )
        assert errs[0.25] < errs[1.0]


# ---------------------------------------------------------------------------
# near-field classification guarantee


class TestClassification:
    def test_candidate_mask_covers_overlaps(self, pair, rng):
        # The documented guarantee: the clash-voxel mask may over-flag
        # (its conservative dilation) but never under-flags -- every
        # atom within clash_radius of any receptor atom sits in a
        # flagged voxel, so its overlapping pairs get corrected.
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        fld.score(coords)  # force build
        for _ in range(25):
            pose = coords + rng.normal(
                scale=1.5, size=coords.shape
            ) + rng.normal(scale=3.0, size=(1, 3))
            frac = (pose - fld.maps.origin) * fld.maps.inv_spacing
            in_box = (frac >= 0.0).all(axis=1) & (
                frac <= fld.maps.upper
            ).all(axis=1)
            idx = np.clip(
                np.floor(frac).astype(np.int64), 0, fld.maps.max_idx
            )
            flagged = fld._near_flat[idx @ fld.maps.strides]
            dmin = np.sqrt(
                ((pose[:, None, :] - rec.coords[None, :, :]) ** 2)
                .sum(axis=-1)
                .min(axis=1)
            )
            overlapping = dmin < fld.clash_radius
            assert (flagged | ~in_box)[overlapping].all()

    def test_candidate_table_matches_cell_list(self, pair, rng):
        # The voxel CSR table is a precomputed cell list: expanding it
        # for a probe and range-filtering must yield exactly the pairs
        # the reference CellList query finds at clash_radius.
        from repro.scoring.neighborlist import CellList
        from tests.cutoff_reference import query_pairs

        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        fld.score(coords)
        maps = fld.maps
        cells = CellList(rec.coords, cell_size=maps.clash_radius)
        for _ in range(10):
            pose = coords + rng.normal(scale=1.0, size=coords.shape)
            frac = (pose - maps.origin) * fld.maps.inv_spacing
            idx = np.clip(
                np.floor(frac).astype(np.int64), 0, fld.maps.max_idx
            )
            vox = idx @ fld.maps.strides
            want_r, want_p = query_pairs(
                cells, pose, maps.clash_radius
            )
            got = set()
            for a in range(pose.shape[0]):
                s = maps.cand_start[vox[a]]
                cand = maps.cand_atoms[s : s + maps.cand_count[vox[a]]]
                d = np.linalg.norm(
                    rec.coords[cand] - pose[a], axis=1
                )
                for c in cand[d <= maps.clash_radius]:
                    got.add((int(c), a))
            assert got == set(
                zip(want_r.tolist(), want_p.tolist())
            )

    def test_near_fraction_tracks_pose(self, pair):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        fld.score(coords + 500.0)
        assert fld.near_fraction == 1.0
        # A pose hovering just off the receptor surface but inside the
        # padded box is fully far-field (clash radius + dilation clear).
        ring = coords - coords.mean(axis=0)
        ring = ring + rec.coords.mean(axis=0) + [0.0, 0.0, 10.0]
        fld.score(ring)
        assert fld.near_fraction == 0.0


# ---------------------------------------------------------------------------
# bit-stability: maps are derived state


class TestMapSharing:
    def test_warm_equals_cold_bitwise(self, pair, rng):
        rec, template, coords = pair
        maps = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        warm = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps
        )
        pose = coords.copy()
        for _ in range(20):
            pose = pose + rng.normal(scale=0.4, size=pose.shape)
            cold = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
            assert warm.score(pose) == cold.score(pose)  # bitwise

    def test_ensure_order_independent(self, pair):
        # Maps built alongside other types == maps built alone.
        rec, template, _ = pair
        maps_a = FieldMaps(rec, spacing=1.0)
        maps_b = FieldMaps(rec, spacing=1.0)
        specs = [
            (3.5, 0.06, True, True),
            (3.1, 0.12, False, True),
            (2.8, 0.02, False, False),
        ]
        maps_a.ensure(specs)  # one batched pass
        for s in reversed(specs):  # three passes, reverse order
            maps_b.ensure([s])
        assert maps_a.build_count == 1 and maps_b.build_count == 3
        np.testing.assert_array_equal(maps_a.phi, maps_b.phi)
        np.testing.assert_array_equal(maps_a.near_mask, maps_b.near_mask)
        np.testing.assert_array_equal(maps_a.cand_atoms, maps_b.cand_atoms)
        np.testing.assert_array_equal(maps_a.cand_count, maps_b.cand_count)
        for key in maps_a._lj:
            for i in range(2):
                np.testing.assert_array_equal(
                    maps_a._lj[key][i], maps_b._lj[key][i]
                )
        for cls in maps_a._hb1210:
            np.testing.assert_array_equal(
                maps_a._hb1210[cls], maps_b._hb1210[cls]
            )
        for p in maps_a._hblj:
            for i in range(2):
                np.testing.assert_array_equal(
                    maps_a._hblj[p][i], maps_b._hblj[p][i]
                )

    def test_ensure_noop_when_built(self, pair):
        rec, template, coords = pair
        maps = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        s1 = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps
        )
        s1.score(coords)
        builds = maps.build_count
        s2 = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps
        )
        s2.score(coords)
        assert maps.build_count == builds  # same types, no rebuild

    def test_score_batch_matches_singles(self, pair, rng):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        batch = np.concatenate(
            [
                coords[None] + rng.normal(scale=0.8, size=(5, 1, 3)),
                coords[None] + 500.0,
            ]
        )
        singles = np.array([fld.score(c) for c in batch])
        assert np.array_equal(fld.score_batch(batch), singles)

    def test_cells_validation(self, pair):
        rec, template, _ = pair
        with pytest.raises(TypeError, match="FieldMaps"):
            FieldScorer(rec, template, cells=object())
        maps = FieldMaps(rec, spacing=1.0)
        with pytest.raises(ValueError, match="spacing"):
            FieldScorer(rec, template, spacing=0.5, cells=maps)
        with pytest.raises(ValueError, match="clash_radius"):
            FieldScorer(
                rec, template, spacing=1.0, clash_radius=4.0, cells=maps
            )

    def test_parameter_validation(self, pair):
        rec, template, coords = pair
        with pytest.raises(ValueError, match="spacing"):
            FieldMaps(rec, spacing=0.0)
        with pytest.raises(ValueError, match="clash_radius"):
            FieldMaps(rec, clash_radius=-1.0)
        with pytest.raises(ValueError, match="dtype"):
            FieldMaps(rec, dtype="float16")
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        with pytest.raises(ValueError, match="shape"):
            fld.score(coords[:3])
        with pytest.raises(ValueError, match="coords_batch"):
            fld.score_batch(coords)

    def test_float32_maps_halve_memory(self, pair, rng):
        rec, template, coords = pair
        f64 = FieldScorer(rec, template, spacing=1.0, padding=PADDING)
        f32 = FieldScorer(
            rec, template, spacing=1.0, padding=PADDING, dtype="float32"
        )
        s64, s32 = f64.score(coords), f32.score(coords)
        # The clash-voxel table (bool mask + integer CSR) is dtype-
        # independent; the float maps themselves halve exactly.
        m64, m32 = f64.maps, f32.maps
        fixed = sum(
            a.nbytes
            for a in (
                m64.near_mask,
                m64.cand_start,
                m64.cand_count,
                m64.cand_atoms,
            )
        )
        assert (m32.nbytes() - fixed) * 2 == m64.nbytes() - fixed
        assert s32 == pytest.approx(s64, rel=1e-3, abs=1.0)


# ---------------------------------------------------------------------------
# the coarse outer level


def _shell_pose(fld, coords):
    """``coords`` translated so every atom sits between the two boxes."""
    maps = fld.maps
    fine_top = maps.origin[2] + maps.upper[2] * maps.spacing
    pose = coords - coords.min(axis=0)
    pose[:, :2] += fld.receptor.coords.mean(axis=0)[:2]
    pose[:, 2] += fine_top + 1.0
    return pose


class TestOuterLevel:
    def test_shell_pose_is_interpolated(self, scorers, pair):
        fld, exact = scorers
        _, _, coords = pair
        pose = _shell_pose(fld, coords)
        _, in_fine = fld.maps.locate(pose)
        _, in_outer = fld.maps.outer.locate(pose)
        assert not in_fine.any() and in_outer.all()
        assert _drift_ok(exact.score(pose), fld.score(pose))
        assert fld.near_fraction == 0.0  # no exact-path atoms
        assert fld.outer_fraction == 1.0

    def test_straddling_three_regimes(self, scorers, pair):
        # Fine, shell and beyond-outer atoms in one pose.
        fld, exact = scorers
        _, _, coords = pair
        m = coords.shape[0]
        pose = coords.copy()
        pose[m // 3 : 2 * m // 3] = _shell_pose(fld, coords)[
            m // 3 : 2 * m // 3
        ]
        pose[2 * m // 3 :] += 500.0
        assert _drift_ok(exact.score(pose), fld.score(pose))
        assert fld.outer_fraction == (2 * m // 3 - m // 3) / m
        assert fld.near_fraction >= (m - 2 * m // 3) / m

    def test_outer_geometry_derived_from_fine(self, pair):
        from repro.scoring.field import (
            OUTER_PADDING_RATIO,
            OUTER_SPACING_RATIO,
        )

        rec, _, _ = pair
        maps = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        outer = maps.outer
        assert outer.outer is None
        assert outer.spacing == OUTER_SPACING_RATIO * SPACING
        assert outer.padding == OUTER_PADDING_RATIO * PADDING
        assert (outer.clash_radius, outer.dtype) == (
            maps.clash_radius,
            maps.dtype,
        )
        # The fine level reads a cell's 8 corners, the outer level the
        # 4 x 4 x 4 nodes around it -- so its box stops one node short
        # of the lattice edge, and still contains the fine box.
        assert (maps.support, maps.margin) == (2, 0)
        assert (outer.support, outer.margin) == (4, 1)
        fine_top = maps.origin + maps.upper * maps.spacing
        outer_low = outer.origin + outer.margin * outer.spacing
        outer_top = outer.origin + outer.upper * outer.spacing
        assert (outer_low < maps.origin).all()
        assert (outer_top > fine_top).all()

    def test_outer_stencil_reproduces_cubics(self, pair, rng):
        # The 4-point Lagrange stencil is exact for cubic polynomials;
        # the fine level's 2-point stencil for (tri)linear ones.
        rec, _, _ = pair
        maps = FieldMaps(rec, spacing=1.0, padding=PADDING)
        for level, degree in ((maps, 1), (maps.outer, 3)):
            nodes = level.origin + level.spacing * np.stack(
                np.meshgrid(
                    *(np.arange(n) for n in level.shape), indexing="ij"
                ),
                axis=-1,
            ).reshape(-1, 3)
            coef = rng.normal(size=(3, degree + 1))

            def poly(x):
                return sum(
                    (coef[a, d] * (x[:, a] / 10.0) ** d)
                    for a in range(3)
                    for d in range(degree + 1)
                ) + (x[:, 0] * x[:, 1] * x[:, 2]) / 1e3

            values = poly(nodes)
            lo = level.origin + level.margin * level.spacing
            hi = level.origin + level.upper * level.spacing
            pts = rng.uniform(lo, hi, size=(50, 3))
            frac, inside = level.locate(pts)
            assert inside.all()
            base, w = level.stencil(frac)
            got = (
                values[(base - level.slot_base)[:, None] + level.stencil_offs]
                * w
            ).sum(axis=1)
            np.testing.assert_allclose(got, poly(pts), rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("scale", ["paper", "ci"])
    def test_escape_ball_inside_outer_box(self, scale):
        # Every pose the env can reach before the escape rule fires has
        # all its atoms inside the outer box at the default geometry.
        cfg = (
            ci_scale_config()
            if scale == "ci"
            else DQNDockingConfig(complex=ComplexConfig())
        )
        built = build_complex(cfg.complex)
        lig = built.ligand_initial
        reach = cfg.escape_factor * built.initial_com_distance + float(
            np.linalg.norm(
                lig.coords - lig.center_of_mass(), axis=1
            ).max()
        )
        outer = FieldMaps(built.receptor).outer
        center = built.receptor.center_of_mass()
        outer_low = outer.origin + outer.margin * outer.spacing
        outer_top = outer.origin + outer.upper * outer.spacing
        assert (center - reach > outer_low).all()
        assert (center + reach < outer_top).all()

    def test_shared_equals_private_including_outer(self, pair, rng):
        rec, template, coords = pair
        maps = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        # Warm the shared maps with a different ligand type set first.
        maps.ensure([(3.3, 0.09, True, False)])
        shared = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps
        )
        private = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING
        )
        shell = _shell_pose(shared, coords)
        for _ in range(10):
            pose = shell + rng.normal(scale=0.4, size=shell.shape)
            assert shared.score(pose) == private.score(pose)  # bitwise
            assert shared.outer_fraction > 0.0
        o_shared, o_private = maps.outer, private.maps.outer
        np.testing.assert_array_equal(o_shared.phi, o_private.phi)
        for key, (rep, disp) in o_private._lj.items():
            np.testing.assert_array_equal(o_shared._lj[key][0], rep)
            np.testing.assert_array_equal(o_shared._lj[key][1], disp)
        for cls, arr in o_private._hb1210.items():
            np.testing.assert_array_equal(o_shared._hb1210[cls], arr)

    def test_lazy_ensure_extends_both_levels(self, pair):
        rec, template, coords = pair
        maps = FieldMaps(rec, spacing=1.0, padding=PADDING)
        fld = FieldScorer(
            rec, template, spacing=1.0, padding=PADDING, cells=maps
        )
        shell = _shell_pose(fld, coords)
        before = fld.score(shell)
        size = maps.nbytes()
        new_spec = (3.9, 0.31, True, True)
        assert (new_spec[0], new_spec[1]) not in maps._lj
        assert maps.ensure([new_spec])
        for level in (maps, maps.outer):
            assert (new_spec[0], new_spec[1]) in level._lj
            assert (True, True) in level._hb1210
        assert maps.nbytes() > size
        slot = maps.slot_of(new_spec)
        stack = maps.flat_stack().reshape(-1, maps.slot_stride)
        assert stack.shape[0] == 2 + slot  # phi + every slot so far
        # Existing slots are untouched: same floats after the rebind.
        assert fld.score(shell) == before
        assert fld._flat is maps.flat_stack()

    def test_outer_level_has_no_pair_table(self, pair):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=1.0, padding=PADDING)
        outer = fld.maps.outer
        assert outer.phi is not None
        assert outer.near_mask is None and outer.cand_atoms is None

    def test_nbytes_counts_outer_level(self, pair):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=1.0, padding=PADDING)
        maps = fld.maps
        outer_maps = maps.outer.nbytes()
        assert outer_maps > 0
        fine_only = sum(
            a.nbytes
            for a in (
                maps.phi,
                maps.near_mask,
                maps.cand_start,
                maps.cand_count,
                maps.cand_atoms,
            )
        )
        fine_only += sum(
            r.nbytes + d.nbytes for r, d in maps._lj.values()
        )
        fine_only += sum(a.nbytes for a in maps._hb1210.values())
        fine_only += sum(
            r.nbytes + d.nbytes for r, d in maps._hblj.values()
        )
        assert maps.nbytes() == (
            fine_only + outer_maps + maps.flat_stack().nbytes
        )

    def test_random_walk_from_start_pose_within_budget(self):
        # 1,000 env steps of uniform random actions from Figure 3's
        # pose A on the CI-scale complex.  The fine box is shrunk so
        # most of the walk happens in the shell (as it does at 2BSM
        # scale with the default padding); the outer lattice is the
        # default 4 A.
        cfg = ci_scale_config(
            max_steps=1000,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "padding": PADDING},
        )
        env = make_env(cfg)
        engine = env.engine
        from repro.telemetry.metrics import MetricsRegistry

        reg = MetricsRegistry()
        engine.metrics = reg
        exact = ExactScorer(engine.receptor, engine.template)
        rng = np.random.default_rng(2018)
        env.reset()
        s_field = [env.current_score()]
        s_exact = [exact.score(engine.ligand_coords())]
        keep = []
        for _ in range(1000):
            _, _, done, info = env.step(int(rng.integers(env.n_actions)))
            s_field.append(info["score"])
            s_exact.append(exact.score(engine.ligand_coords()))
            keep.append(True)
            if done:
                env.reset()
                s_field.append(env.current_score())
                s_exact.append(exact.score(engine.ligand_coords()))
                keep.append(False)  # the pair straddling the reset
        env.close()
        keep = np.array(keep)
        s_field, s_exact = np.array(s_field), np.array(s_exact)
        d_field = np.diff(s_field)[keep]
        d_exact = np.diff(s_exact)[keep]
        calm = ((np.abs(s_exact[:-1]) < 1e4) & (np.abs(s_exact[1:]) < 1e4))[
            keep
        ]
        assert calm.sum() > 500
        assert np.abs(d_field - d_exact)[calm].max() <= FIELD_CALM_STEP_BOUND
        agreement = (np.sign(d_field) == np.sign(d_exact)).mean()
        assert agreement >= 0.95, agreement
        # The walk really exercised the outer level, and never needed
        # an exact column.
        outer = reg.get(OUTER_FRACTION_METRIC)
        assert outer.count == reg.get(NEAR_FRACTION_METRIC).count
        assert outer.mean > 0.5


# ---------------------------------------------------------------------------
# factory / config / env / CLI plumbing


class TestPlumbing:
    def test_factory(self, pair):
        rec, template, _ = pair
        s = make_scorer(
            "field", rec, template, spacing=0.75, clash_radius=3.5
        )
        assert isinstance(s, FieldScorer)
        assert s.spacing == 0.75 and s.clash_radius == 3.5
        assert "field" in SCORING_METHODS

    def test_config_accepts_field(self):
        cfg = ci_scale_config(
            episodes=1,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "dtype": "float32"},
        )
        assert cfg.scoring_method == "field"
        with pytest.raises(ValueError, match="runtime-only"):
            ci_scale_config(
                episodes=1,
                scoring_method="field",
                scoring_kwargs={"cells": None},
            )

    def test_make_env_wires_scorer(self, small_complex):
        cfg = ci_scale_config(
            episodes=1,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "padding": PADDING},
        )
        env = make_env(cfg, small_complex)
        assert isinstance(env.engine.scorer, FieldScorer)
        assert env.engine.scorer.spacing == 1.0

    def test_cli_accepts_field(self):
        from repro.cli import build_parser

        p = build_parser()
        for cmd in ("figure4", "curriculum", "screen"):
            args = p.parse_args([cmd, "--scoring-method", "field"])
            assert args.scoring_method == "field"

    def test_lazy_build(self, pair):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        assert fld._foff is None and fld._maps.phi is None
        fld.score(coords)
        assert fld._foff is not None and fld._flat is not None


# ---------------------------------------------------------------------------
# telemetry


class TestTelemetry:
    def test_span_gauge_and_histogram(self, small_complex):
        from repro.metadock.engine import MetadockEngine
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.spans import SpanTracer

        eng = MetadockEngine(
            small_complex,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "padding": PADDING},
        )
        reg, tr = MetricsRegistry(), SpanTracer()
        eng.metrics = reg
        eng.tracer = tr
        assert eng.scorer.metrics is reg and eng.scorer.tracer is tr
        eng.reset()
        scorer = eng.scorer
        assert reg.get(FIELD_BYTES_METRIC).value == float(
            scorer.maps.nbytes()
        )
        assert reg.get(NEAR_FRACTION_METRIC).count >= 1
        assert (
            reg.get(OUTER_FRACTION_METRIC).count
            == reg.get(NEAR_FRACTION_METRIC).count
        )
        assert "field-build" in str(tr.report())

    def test_metrics_attached_after_build(self, pair):
        from repro.telemetry.metrics import MetricsRegistry

        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=1.0, padding=PADDING)
        fld.score(coords)
        reg = MetricsRegistry()
        fld.metrics = reg
        assert reg.get(FIELD_BYTES_METRIC).value > 0.0


# ---------------------------------------------------------------------------
# interrupt/resume bit-stability through the trainer stack


class TestFieldResume:
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
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "padding": PADDING},
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

        # Resume in a fresh stack: maps rebuild cold, which must not
        # perturb a single float (maps are derived state).
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

        def deep_equal(a, b):
            if isinstance(a, dict):
                assert set(a) == set(b)
                for k in a:
                    deep_equal(a[k], b[k])
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True)
            else:
                assert a == b or (a != a and b != b)

        deep_equal(agent_a.state_dict(), agent_c.state_dict())
