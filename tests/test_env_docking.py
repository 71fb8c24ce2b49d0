"""DockingEnv: reward rules, termination rules, protocol, comm modes."""

import numpy as np
import pytest

from repro.chem.builders import POCKET_AXIS
from repro.config import ci_scale_config
from repro.env.comm import FileComm, RamComm
from repro.env.docking_env import DockingEnv
from repro.env.factory import make_env
from repro.env.flexible_env import FlexibleDockingEnv
from repro.env.spaces import Box, Discrete
from repro.metadock.engine import MetadockEngine

from tests.conftest import SMALL_COMPLEX_CFG


class TestSpaces:
    def test_discrete_contains(self):
        d = Discrete(4)
        assert d.contains(0) and d.contains(3)
        assert not d.contains(4) and not d.contains(-1)
        assert not d.contains(1.5)
        assert not d.contains("x")

    def test_discrete_sample_range(self):
        d = Discrete(3)
        assert all(0 <= d.sample(rng=k) < 3 for k in range(20))

    def test_discrete_invalid(self):
        with pytest.raises(ValueError):
            Discrete(0)

    def test_box_contains(self):
        b = Box(-1.0, 1.0, (2,))
        assert b.contains([0.0, 0.5])
        assert not b.contains([0.0, 2.0])
        assert not b.contains([0.0])

    def test_box_sample(self):
        b = Box(0.0, 1.0, (4,))
        s = b.sample(rng=0)
        assert b.contains(s)

    def test_box_unbounded_sample_rejected(self):
        import math

        b = Box(-math.inf, math.inf, (2,))
        with pytest.raises(ValueError):
            b.sample()

    def test_box_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box(1.0, -1.0, (2,))


class TestProtocol:
    def test_reset_returns_state(self, env):
        s = env.reset()
        assert s.shape == (env.state_dim,)
        assert env.observation_space.shape == s.shape

    def test_step_before_reset_rejected(self, engine):
        e = DockingEnv(engine)
        with pytest.raises(RuntimeError):
            e.step(0)

    def test_invalid_action_rejected(self, env):
        env.reset()
        with pytest.raises(ValueError):
            env.step(12)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_step_returns_tuple(self, env):
        env.reset()
        state, reward, done, info = env.step(0)
        assert state.shape == (env.state_dim,)
        assert reward in (-1.0, 0.0, 1.0)
        assert isinstance(done, bool)
        assert "score" in info and "com_distance" in info

    @pytest.mark.parametrize(
        "mode,method",
        [("raw", "exact"), ("compact", "incremental"), ("descriptor", "field")],
    )
    def test_step_makes_no_element_lookups(
        self, small_complex, monkeypatch, mode, method
    ):
        # Static receptor/ligand data (masses, COM, LJ tables) is
        # derived once; a step costs O(ligand atoms), never a Python
        # per-atom element-table walk.
        from repro.chem import elements

        cfg = ci_scale_config(
            observation_mode=mode,
            scoring_method=method,
            scoring_kwargs=(
                {"spacing": 1.0, "padding": 6.0} if method == "field" else {}
            ),
        )
        e = make_env(cfg, small_complex)
        e.reset()
        calls = []
        real = elements.element
        monkeypatch.setattr(
            elements, "element", lambda s: calls.append(s) or real(s)
        )
        rng = np.random.default_rng(0)
        for _ in range(25):
            _, _, done, _ = e.step(int(rng.integers(e.n_actions)))
            if done:
                break
        e.close()
        assert calls == []

    def test_reset_restores_initial_state(self, env):
        s0 = env.reset()
        env.step(0)
        env.step(6)
        s1 = env.reset()
        np.testing.assert_allclose(s1, s0)

    def test_step_counters(self, env):
        env.reset()
        env.step(0)
        env.step(1)
        assert env.episode_steps == 2
        assert env.total_steps == 2
        env.reset()
        assert env.episode_steps == 0
        assert env.total_steps == 2


class TestRewardRules:
    def test_reward_is_sign_of_score_change(self, env):
        env.reset()
        # Action 5 (-z) moves the ligand toward the pocket: score rises.
        _s, r_toward, _d, info_toward = env.step(5)
        assert r_toward == np.sign(info_toward["score_delta"])
        env.reset()
        _s, r_away, _d, info_away = env.step(4)
        assert r_away == np.sign(info_away["score_delta"])
        # And the two directions disagree.
        assert info_toward["score_delta"] * info_away["score_delta"] < 0

    def test_rewards_clipped_to_unit(self, env):
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(30):
            _s, r, done, _i = env.step(int(rng.integers(12)))
            assert r in (-1.0, 0.0, 1.0)
            if done:
                env.reset()

    def test_unchanged_score_zero_reward(self, engine):
        # A rotation of a spherically-distant ligand changes the score
        # negligibly but not exactly zero; test the exact-zero branch by
        # stepping the same pose twice via +x then -x and comparing the
        # cumulative effect instead: reward for identical score is 0.
        env = DockingEnv(engine)
        env.reset()
        s1 = env.engine.score()
        env.step(0)
        _s, r, _d, info = env.step(1)  # returns to the original pose
        assert info["score"] == pytest.approx(s1, rel=1e-12)
        # delta from the displaced pose back to original is positive or
        # negative depending on direction; just assert sign consistency:
        assert r == np.sign(info["score_delta"])


class TestTerminationRules:
    def test_escape_rule(self, engine):
        env = DockingEnv(engine, escape_factor=4.0 / 3.0)
        env.reset()
        done = False
        info = {}
        for _ in range(200):
            _s, _r, done, info = env.step(4)  # +z: straight away
            if done:
                break
        assert done
        assert info["termination"] == "escape"
        assert info["com_distance"] > info["escape_radius"]

    def test_deep_penetration_rule(self, engine):
        env = DockingEnv(
            engine, low_score_patience=5, low_score_threshold=-1000.0
        )
        env.reset()
        done = False
        info = {}
        for _ in range(300):
            _s, _r, done, info = env.step(5)  # -z: into the receptor
            if done:
                break
        assert done
        assert info["termination"] == "deep-penetration"

    def test_patience_resets_on_recovery(self, engine):
        env = DockingEnv(
            engine, low_score_patience=3, low_score_threshold=-1000.0
        )
        env.reset()
        # Drive in until the streak starts.
        streak_seen = 0
        for _ in range(100):
            _s, _r, done, info = env.step(5)
            if info["low_score_streak"] == 2:
                streak_seen = 2
                break
        assert streak_seen == 2
        # Step back out: streak must reset before hitting patience.
        _s, _r, done, info = env.step(4)
        if info["score"] >= -1000.0:
            assert info["low_score_streak"] == 0
            assert not done

    def test_escape_factor_validated(self, engine):
        with pytest.raises(ValueError):
            DockingEnv(engine, escape_factor=0.9)

    def test_patience_validated(self, engine):
        with pytest.raises(ValueError):
            DockingEnv(engine, low_score_patience=0)

    def test_paper_thresholds_default(self, engine):
        env = DockingEnv(engine)
        assert env.low_score_patience == 20
        assert env.low_score_threshold == -100000.0
        assert env.escape_factor == pytest.approx(4.0 / 3.0)


class TestCommIntegration:
    def test_file_comm_equivalent_to_ram(self, small_complex):
        def run(comm):
            engine = MetadockEngine(
                small_complex, shift_length=0.8, rotation_angle_deg=5.0
            )
            env = DockingEnv(engine, comm=comm)
            states, rewards = [], []
            s = env.reset()
            states.append(s.copy())
            for a in [0, 5, 5, 7, 2]:
                s, r, _d, _i = env.step(a)
                states.append(s.copy())
                rewards.append(r)
            env.close()
            return states, rewards

        ram_states, ram_rewards = run(RamComm())
        file_states, file_rewards = run(FileComm())
        assert ram_rewards == file_rewards
        for a, b in zip(ram_states, file_states):
            np.testing.assert_array_equal(a, b)

    def test_file_comm_counts_round_trips(self, small_complex):
        comm = FileComm()
        engine = MetadockEngine(small_complex)
        env = DockingEnv(engine, comm=comm)
        env.reset()
        env.step(0)
        env.step(1)
        assert comm.round_trips == 3  # reset + 2 steps
        env.close()


class TestMakeEnv:
    def test_from_ci_config(self, tiny_run_config):
        env = make_env(tiny_run_config)
        try:
            s = env.reset()
            assert s.shape[0] == env.state_dim
            assert env.n_actions == 12
        finally:
            env.close()

    def test_flexible_config_adds_actions(self, tiny_run_config):
        cfg = tiny_run_config.replace(flexible_ligand=True)
        env = make_env(cfg)
        try:
            assert env.n_actions == 12 + 2 * cfg.complex.rotatable_bonds
        finally:
            env.close()

    def test_reuses_built_complex(self, tiny_run_config, small_complex):
        env = make_env(tiny_run_config, small_complex)
        try:
            assert env.engine.built is small_complex
        finally:
            env.close()


class TestFlexibleEnv:
    def test_action_space(self, small_complex):
        env = FlexibleDockingEnv(small_complex, n_torsions=2)
        try:
            assert env.n_actions == 16
            env.reset()
            _s, r, _d, _i = env.step(12)  # torsion action
            assert r in (-1.0, 0.0, 1.0)
        finally:
            env.close()

    def test_torsion_step_changes_state(self, small_complex):
        env = FlexibleDockingEnv(small_complex, n_torsions=2)
        try:
            s0 = env.reset()
            s1, _r, _d, _i = env.step(14)
            assert not np.array_equal(s0, s1)
        finally:
            env.close()
