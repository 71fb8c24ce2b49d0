"""SyncVectorEnv and the batched-acting VectorTrainer."""

import numpy as np
import pytest

from repro.env.factory import make_vector_env
from repro.rl.vector_trainer import VectorTrainer
from repro.telemetry.spans import SpanTracer

from tests.test_rl_trainer import CountingEnv, tiny_agent


def make_venv(n=3, horizon=6):
    return make_vector_env(
        env_fns=[lambda: CountingEnv(horizon=horizon)] * n
    )


class TestSyncVectorEnv:
    def test_reset_shape(self):
        venv = make_venv(3)
        states = venv.reset()
        assert states.shape == (3, 2)
        assert venv.n_envs == 3
        assert venv.n_actions == 2

    def test_step_shapes(self):
        venv = make_venv(2)
        venv.reset()
        states, rewards, dones, infos = venv.step([0, 1])
        assert states.shape == (2, 2)
        assert rewards.shape == (2,)
        assert dones.shape == (2,)
        assert isinstance(infos, tuple) and len(infos) == 2
        assert rewards[0] == 1.0 and rewards[1] == -1.0

    def test_auto_reset_and_terminal_state(self):
        venv = make_venv(1, horizon=2)
        venv.reset()
        venv.step([0])
        states, _r, dones, infos = venv.step([0])
        assert dones[0]
        # Returned state is the fresh reset; the true terminal next
        # state is surfaced in the info dict.
        np.testing.assert_array_equal(states[0], [0.0, 0.0])
        assert "terminal_state" in infos[0]
        assert infos[0]["terminal_state"][1] == 2.0

    def test_action_count_validated(self):
        venv = make_venv(2)
        venv.reset()
        with pytest.raises(ValueError):
            venv.step([0])

    def test_action_ndim_validated(self):
        venv = make_venv(2)
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.zeros((2, 1), dtype=int))

    def test_float_actions_rejected(self):
        venv = make_venv(2)
        venv.reset()
        with pytest.raises(TypeError):
            venv.step(np.array([0.0, 1.0]))
        with pytest.raises(TypeError):
            venv.step([0.5, 1.5])

    def test_integer_array_likes_accepted(self):
        venv = make_venv(2)
        venv.reset()
        for actions in ([0, 1], (0, 1), np.array([0, 1], dtype=np.int32)):
            _s, rewards, _d, _i = venv.step(actions)
            assert rewards.shape == (2,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_vector_env(env_fns=[])

    def test_mismatched_envs_rejected(self):
        class OtherEnv(CountingEnv):
            def __init__(self):
                super().__init__()
                self.state_dim = 5

        with pytest.raises(ValueError):
            make_vector_env(env_fns=[lambda: CountingEnv(), OtherEnv])

    def test_docking_envs_vectorize(self, small_complex):
        from repro.env.docking_env import DockingEnv
        from repro.metadock.engine import MetadockEngine

        venv = make_vector_env(
            env_fns=[
                lambda: DockingEnv(
                    MetadockEngine(small_complex, shift_length=0.8)
                )
            ]
            * 2
        )
        try:
            states = venv.reset()
            assert states.shape[0] == 2
            s2, r, d, infos = venv.step([5, 4])
            assert np.isfinite(infos[0]["score"])
            # opposite moves on identical complexes: opposite rewards
            assert r[0] != r[1]
        finally:
            venv.close()


class TestVectorTrainer:
    def test_collects_requested_steps(self):
        venv = make_venv(3, horizon=5)
        agent = tiny_agent()
        trainer = VectorTrainer(venv, agent)
        history = trainer.run(total_steps=30)
        assert history is trainer.core.history
        assert history.total_steps == 30
        assert len(agent.replay) == 30
        # 10 steps per env at horizon 5: two complete episodes each.
        assert len(history.episodes) == 6
        assert {e.termination for e in history.episodes} == {"chain-end"}
        assert agent.learn_steps > 0

    def test_update_density_matches_sequential(self):
        venv = make_venv(2, horizon=100)
        agent = tiny_agent()
        VectorTrainer(venv, agent, train_interval=4).run(total_steps=40)
        # 40 transitions / train_interval 4 = 10 updates (once learnable).
        assert 5 <= agent.learn_steps <= 10

    def test_target_sync_counted(self):
        venv = make_venv(2, horizon=100)
        agent = tiny_agent()
        VectorTrainer(venv, agent, target_update_steps=10).run(
            total_steps=40
        )
        assert agent.target_syncs == 4

    def test_learning_start_respected(self):
        venv = make_venv(2, horizon=100)
        agent = tiny_agent()
        VectorTrainer(venv, agent, learning_start=30).run(total_steps=40)
        # Learning only once global_step reaches 30 -> roughly the last
        # 10-12 transitions produce updates (vs 40 without the gate).
        assert 1 <= agent.learn_steps <= 14

    def test_agent_learns_the_chain(self):
        venv = make_venv(4, horizon=8)
        agent = tiny_agent()
        VectorTrainer(venv, agent).run(total_steps=600)
        from repro.rl.evaluation import evaluate_policy

        rollout = evaluate_policy(
            CountingEnv(horizon=8), agent, episodes=1, max_steps=8, epsilon=0.0
        )
        assert rollout.max_best_score == pytest.approx(8.0)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            VectorTrainer(make_venv(1), tiny_agent()).run(0)

    def test_stats_fields(self):
        venv = make_venv(2, horizon=5)
        agent = tiny_agent()
        history = VectorTrainer(venv, agent).run(total_steps=20)
        assert history.wall_seconds > 0
        rewards = np.asarray([e.total_reward for e in history.episodes])
        assert np.isfinite(rewards).all()
        # Every transition's reward lands in exactly one episode row.
        assert rewards.sum() == sum(
            agent.replay[i].reward for i in range(20)
        )
        assert "env-step" in history.timer_report

    def test_external_tracer_reflected_in_report(self):
        # timer_report must render the tracer the caller supplied, and
        # the caller's tracer must accumulate the run's spans.
        tracer = SpanTracer()
        venv = make_venv(2, horizon=5)
        history = VectorTrainer(venv, tiny_agent(), tracer=tracer).run(
            total_steps=20
        )
        assert history.timer_report == tracer.report()
        assert tracer.get("env-step") is not None
        assert tracer.get("env-step").count == 10  # 20 steps / 2 envs

    def test_best_score_nan_safe_without_finite_scores(self):
        class ScorelessEnv(CountingEnv):
            def step(self, action):
                state, reward, done, _info = super().step(action)
                return state, reward, done, {}

        venv = make_vector_env(
            env_fns=[lambda: ScorelessEnv(horizon=5)] * 2
        )
        history = VectorTrainer(venv, tiny_agent()).run(total_steps=20)
        # No env ever reported a finite score: the one "nothing seen"
        # convention of EpisodeStats / TrainingHistory, -inf.
        assert history.best_score == float("-inf")
        assert all(np.isnan(e.final_score) for e in history.episodes)
