"""MetadockEngine: action semantics, state vectors, scoring, caching."""

import numpy as np
import pytest

from repro.metadock.engine import MetadockEngine
from repro.metadock.pose import Pose
from repro.scoring.composite import interaction_score


class TestActions:
    def test_action_count_rigid(self, engine):
        assert engine.n_actions == 12

    def test_action_count_flexible(self, flex_engine):
        assert flex_engine.n_actions == 16

    def test_out_of_range_rejected(self, engine):
        with pytest.raises(IndexError):
            engine.apply_action(12)
        with pytest.raises(IndexError):
            engine.apply_action(-1)

    def test_shift_moves_centroid_by_step(self, engine):
        engine.reset()
        before = engine.ligand_coords().mean(axis=0)
        engine.apply_action(0)  # +shift-x
        after = engine.ligand_coords().mean(axis=0)
        np.testing.assert_allclose(
            after - before, [engine.shift_length, 0, 0], atol=1e-12
        )

    def test_opposite_shifts_cancel(self, engine):
        engine.reset()
        start = engine.ligand_coords().copy()
        engine.apply_action(2)  # +y
        engine.apply_action(3)  # -y
        np.testing.assert_allclose(engine.ligand_coords(), start, atol=1e-9)

    def test_rotation_keeps_centroid(self, engine):
        engine.reset()
        before = engine.ligand_coords().mean(axis=0)
        engine.apply_action(6)  # +rot-x
        after = engine.ligand_coords().mean(axis=0)
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_opposite_rotations_cancel(self, engine):
        engine.reset()
        start = engine.ligand_coords().copy()
        engine.apply_action(8)
        engine.apply_action(9)
        np.testing.assert_allclose(engine.ligand_coords(), start, atol=1e-9)

    def test_torsion_action_changes_internal_geometry(self, flex_engine):
        flex_engine.reset()
        before = flex_engine.ligand_coords().copy()
        flex_engine.apply_action(12)  # +twist-0
        after = flex_engine.ligand_coords()
        # centroid preserved (re-centered template) but shape changed
        np.testing.assert_allclose(
            after.mean(axis=0), before.mean(axis=0), atol=1e-9
        )
        assert not np.allclose(after, before)

    def test_too_many_torsions_rejected(self, small_complex):
        with pytest.raises(ValueError):
            MetadockEngine(small_complex, n_torsions=50)


class TestStateAndScore:
    def test_reset_restores_initial(self, engine):
        obs0 = engine.reset()
        engine.apply_action(0)
        engine.apply_action(7)
        obs1 = engine.reset()
        np.testing.assert_allclose(obs1.state, obs0.state)
        assert obs1.score == pytest.approx(obs0.score)

    def test_initial_matches_built_complex(self, engine, small_complex):
        engine.reset()
        np.testing.assert_allclose(
            engine.ligand_coords(), small_complex.ligand_initial.coords,
            atol=1e-9,
        )

    def test_state_dim_consistent(self, engine):
        engine.reset()
        assert engine.state_vector().shape == (engine.state_dim(),)

    def test_state_receptor_block_static(self, engine):
        s0 = engine.reset().state
        engine.apply_action(0)
        s1 = engine.state_vector()
        n_rec = engine.receptor.n_atoms * 3
        np.testing.assert_array_equal(s0[:n_rec], s1[:n_rec])
        assert not np.array_equal(s0[n_rec:], s1[n_rec:])

    def test_exclude_receptor_shrinks_state(self, small_complex):
        eng = MetadockEngine(small_complex, include_receptor_in_state=False)
        assert eng.state_dim() == 3 * eng.template.n_atoms + 3 * eng.template.n_bonds

    def test_score_matches_direct_evaluation(self, engine):
        engine.reset()
        engine.apply_action(4)
        lig = engine.template.with_coords(engine.ligand_coords())
        assert engine.score() == pytest.approx(
            interaction_score(engine.receptor, lig)
        )

    def test_score_cache_counts_evaluations(self, engine):
        engine.reset()  # observe() inside reset already scored the pose
        n0 = engine.score_evaluations
        engine.score()
        engine.score()  # both served from the cache
        assert engine.score_evaluations == n0
        engine.apply_action(0)  # invalidates
        engine.score()
        engine.score()
        assert engine.score_evaluations == n0 + 1

    def test_score_pose_does_not_disturb_state(self, engine):
        engine.reset()
        pose_before = engine.pose
        s = engine.score_pose(Pose(np.array([0, 0, 20.0]), Pose.identity().orientation))
        assert np.isfinite(s)
        assert engine.pose is pose_before

    def test_score_poses_batch_matches_single(self, engine):
        engine.reset()
        poses = [
            engine.pose,
            engine.pose.translated([1, 0, 0]),
            engine.pose.rotated("z", 0.4),
        ]
        batch = engine.score_poses(poses)
        singles = [engine.score_pose(p) for p in poses]
        np.testing.assert_allclose(batch, singles, rtol=1e-9)

    def test_score_poses_empty(self, engine):
        assert engine.score_poses([]).size == 0


class TestGeometryHelpers:
    def test_initial_com_distance(self, engine, small_complex):
        engine.reset()
        assert engine.com_distance() == pytest.approx(
            small_complex.initial_com_distance, rel=1e-6
        )

    @pytest.mark.parametrize("flexible", [False, True])
    def test_com_distance_bit_equal_to_molecule_formula(
        self, engine, flex_engine, flexible
    ):
        # The cached-geometry fast path must reproduce the original
        # per-call Molecule.center_of_mass computation bit for bit:
        # termination decisions and seeded trajectories hang on it.
        eng = flex_engine if flexible else engine
        rng = np.random.default_rng(41)
        eng.reset()
        for _ in range(200):
            eng.apply_action(int(rng.integers(eng.n_actions)))
            lig = eng.template.with_coords(eng.ligand_coords())
            want = float(
                np.linalg.norm(
                    lig.center_of_mass() - eng.receptor.center_of_mass()
                )
            )
            assert eng.com_distance() == want  # bitwise

    def test_com_distance_tracks_shift(self, engine):
        engine.reset()
        d0 = engine.com_distance()
        engine.apply_action(4)  # +z, along the pocket axis, away
        assert engine.com_distance() > d0

    def test_crystal_rmsd_zero_at_crystal(self, engine, small_complex):
        crystal_pose = Pose(
            small_complex.ligand_crystal.centroid(),
            Pose.identity().orientation,
        )
        engine.reset(crystal_pose)
        assert engine.crystal_rmsd() == pytest.approx(0.0, abs=1e-9)

    def test_crystal_rmsd_positive_at_initial(self, engine):
        engine.reset()
        assert engine.crystal_rmsd() > 1.0
