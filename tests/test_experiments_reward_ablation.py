"""Reward-scheme ablation and the RewardScheme wrapper."""

import numpy as np
import pytest

from repro.experiments.reward_ablation import (
    RewardAblationResult,
    RewardScheme,
    run_reward_ablation,
)

from tests.test_env_wrappers import FakeEnv


class ScoreDeltaEnv(FakeEnv):
    """FakeEnv variant reporting score_delta like DockingEnv does."""

    def step(self, action):
        state, reward, done, info = super().step(action)
        delta = 1.0 if action == 0 else -1.0
        info["score_delta"] = delta
        info["score"] = float(self.t) * delta
        return state, reward, done, info


class TestRewardSchemeWrapper:
    def test_sign(self):
        env = RewardScheme(ScoreDeltaEnv(), "sign")
        env.reset()
        _s, r, _d, _i = env.step(0)
        assert r == 1.0
        _s, r, _d, _i = env.step(1)
        assert r == -1.0

    def test_clipped(self):
        env = RewardScheme(ScoreDeltaEnv(), "clipped")
        env.reset()
        _s, r, _d, _i = env.step(0)
        assert r == 1.0  # delta is exactly 1.0

    def test_scaled_is_smooth(self):
        env = RewardScheme(ScoreDeltaEnv(), "scaled", scale=2.0)
        env.reset()
        _s, r, _d, _i = env.step(0)
        assert r == pytest.approx(np.tanh(0.5))

    def test_potential_telescopes(self):
        class RmsdDeltaEnv(ScoreDeltaEnv):
            def step(self, action):
                s, r, d, info = super().step(action)
                info["crystal_rmsd"] = 10.0 - self.t  # shrinking
                return s, r, d, info

        gamma = 0.9
        env = RewardScheme(RmsdDeltaEnv(), "potential", gamma=gamma)
        env.reset()
        _s, r1, _d, _i = env.step(0)
        # First step: phi' = -9; prev defaults to phi' -> r = (g-1)*phi'.
        assert r1 == pytest.approx((gamma - 1.0) * (-9.0))
        _s, r2, _d, _i = env.step(0)
        assert r2 == pytest.approx(gamma * (-8.0) - (-9.0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            RewardScheme(ScoreDeltaEnv(), "fancy")

    def test_on_real_docking_env(self, engine):
        from repro.env.docking_env import DockingEnv

        env = RewardScheme(DockingEnv(engine), "scaled")
        env.reset()
        _s, r, _d, _i = env.step(5)
        assert -1.0 < r < 1.0


class TestRunRewardAblation:
    def test_all_schemes_trained(self, tiny_run_config):
        result = run_reward_ablation(
            tiny_run_config, schemes=("sign", "potential")
        )
        assert set(result.histories) == {"sign", "potential"}
        for h in result.histories.values():
            assert len(h.episodes) == tiny_run_config.episodes

    def test_summary_table(self, tiny_run_config):
        result = run_reward_ablation(tiny_run_config, schemes=("sign",))
        out = result.summary()
        assert "reward scheme" in out
        assert "sign" in out

    def test_empty_result_summary(self):
        assert "reward scheme" in RewardAblationResult().summary()
