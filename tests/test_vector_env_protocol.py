"""The :class:`~repro.env.vectorized.SyncVectorEnv` contract.

Shapes, auto-reset/terminal-state semantics, action validation, and
the :func:`~repro.env.factory.make_vector_env` construction modes.
"""

import numpy as np
import pytest

from repro.env.factory import make_vector_env
from repro.env.vectorized import SyncVectorEnv, coerce_actions
from repro.rl.vector_trainer import VectorTrainer

from tests.test_rl_trainer import CountingEnv, tiny_agent


class SeededWalkEnv:
    """Deterministic-per-seed random walk.

    Transitions depend only on the env's own RNG stream and the action
    sequence.
    """

    def __init__(self, seed, horizon=7, state_dim=3):
        self.seed = seed
        self.horizon = horizon
        self.state_dim = state_dim
        self.n_actions = 4
        self.rng = None
        self.t = 0
        self.state = np.zeros(state_dim)

    def reset(self):
        self.rng = np.random.default_rng(self.seed)
        self.t = 0
        self.state = self.rng.normal(size=self.state_dim)
        return self.state.copy()

    def step(self, action):
        self.t += 1
        self.state = self.state + self.rng.normal(size=self.state_dim) + action
        reward = float(self.state.sum())
        done = self.t >= self.horizon
        return self.state.copy(), reward, done, {"score": reward}


def walk_fns(n, seeds=None):
    seeds = seeds or list(range(n))
    return [(lambda s=s: SeededWalkEnv(s)) for s in seeds]


class TestSyncVectorEnvContract:
    def test_reset_and_step_shapes(self):
        with make_vector_env(env_fns=walk_fns(3)) as venv:
            assert isinstance(venv, SyncVectorEnv)
            states = venv.reset()
            assert states.shape == (3, 3)
            assert states.dtype == np.float64
            s, r, d, infos = venv.step([0, 1, 2])
            assert s.shape == (3, 3)
            assert r.shape == (3,)
            assert d.shape == (3,) and d.dtype == bool
            assert isinstance(infos, tuple) and len(infos) == 3

    def test_auto_reset_returns_fresh_state(self):
        with make_vector_env(
            env_fns=[lambda: CountingEnv(horizon=2)]
        ) as venv:
            venv.reset()
            venv.step([0])
            states, _r, dones, infos = venv.step([0])
            assert dones[0]
            # Fresh post-reset state in the batch; the true terminal
            # next-state rides in the info dict.
            np.testing.assert_array_equal(states[0], [0.0, 0.0])
            assert infos[0]["terminal_state"][1] == 2.0

    def test_action_validation(self):
        with make_vector_env(env_fns=walk_fns(2)) as venv:
            venv.reset()
            with pytest.raises(ValueError):
                venv.step([0])
            with pytest.raises(ValueError):
                venv.step(np.zeros((2, 2), dtype=int))
            with pytest.raises(TypeError):
                venv.step(np.array([0.0, 1.0]))

    def test_returned_states_not_aliased(self):
        # A second step must not mutate arrays handed out earlier.
        with make_vector_env(env_fns=walk_fns(2)) as venv:
            venv.reset()
            s1, r1, _d, _i = venv.step([1, 1])
            s1_snap, r1_snap = s1.copy(), r1.copy()
            venv.step([2, 2])
            np.testing.assert_array_equal(s1, s1_snap)
            np.testing.assert_array_equal(r1, r1_snap)

    def test_mismatched_envs_rejected(self):
        fns = [
            lambda: SeededWalkEnv(0, state_dim=3),
            lambda: SeededWalkEnv(1, state_dim=5),
        ]
        with pytest.raises(ValueError, match="disagree"):
            make_vector_env(env_fns=fns)

    def test_trainer_runs(self):
        with make_vector_env(
            env_fns=[lambda: CountingEnv(horizon=6)] * 2
        ) as venv:
            history = VectorTrainer(venv, tiny_agent()).run(total_steps=24)
            assert history.total_steps == 24
            assert [e.steps for e in history.episodes] == [6] * 4


class TestFactory:
    def test_requires_config_or_env_fns(self):
        with pytest.raises(ValueError, match="config or env_fns"):
            make_vector_env()

    def test_builds_from_config(self):
        from repro.config import ci_scale_config

        cfg = ci_scale_config(episodes=2, seed=0, max_steps=5)
        venv = make_vector_env(cfg, n_envs=2)
        try:
            assert venv.n_envs == 2
            states = venv.reset()
            assert states.shape == (2, venv.state_dim)
            _s, r, _d, infos = venv.step([0, 1])
            assert np.isfinite(infos[0]["score"])
        finally:
            venv.close()

    def test_builts_length_checked(self):
        from repro.config import ci_scale_config

        cfg = ci_scale_config(episodes=2, seed=0, max_steps=5)
        with pytest.raises(ValueError, match="built complexes"):
            make_vector_env(cfg, n_envs=3, builts=[object(), object()])

    def test_coerce_actions_contract(self):
        out = coerce_actions([1, 2, 3], 3)
        assert out.dtype == np.int64
        with pytest.raises(ValueError):
            coerce_actions([[1]], 1)
        with pytest.raises(TypeError):
            coerce_actions(np.array([True]), 1)
