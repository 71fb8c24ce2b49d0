"""Trainer: Algorithm 2 loop semantics and metric collection."""

import numpy as np
import pytest

from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.evaluation import evaluate_policy
from repro.rl.trainer import EpisodeStats, Trainer, TrainingHistory


class CountingEnv:
    """Two-state chain: action 0 raises the 'score', action 1 lowers it.

    Gives the trainer deterministic, inspectable dynamics without the
    docking stack.
    """

    def __init__(self, horizon=10):
        self.horizon = horizon
        self.score = 0.0
        self.t = 0
        self.reset_calls = 0
        self.n_actions = 2
        self.state_dim = 2

    def reset(self):
        self.reset_calls += 1
        self.score = 0.0
        self.t = 0
        return np.array([self.score, 0.0])

    def step(self, action):
        self.t += 1
        delta = 1.0 if action == 0 else -1.0
        self.score += delta
        done = self.t >= self.horizon
        info = {"score": self.score}
        if done:
            info["termination"] = "chain-end"
        return np.array([self.score, float(self.t)]), float(
            np.sign(delta)
        ), done, info


def tiny_agent(state_dim=2, n_actions=2, **kw) -> DQNAgent:
    return DQNAgent(
        AgentConfig(
            state_dim=state_dim,
            n_actions=n_actions,
            hidden_sizes=(8,),
            replay_capacity=512,
            minibatch_size=4,
            initial_exploration_steps=0,
            epsilon_decay=0.05,
            epsilon_final=0.0,
            learning_rate=0.01,
            seed=0,
            **kw,
        )
    )


class TestTrainer:
    def test_episode_count(self):
        env = CountingEnv()
        history = Trainer(
            env, tiny_agent(), episodes=5, max_steps_per_episode=10
        ).run()
        assert len(history.episodes) == 5
        assert env.reset_calls == 5
        assert history.total_steps == 50

    def test_learning_start_respected(self):
        env = CountingEnv()
        agent = tiny_agent()
        Trainer(
            env,
            agent,
            episodes=3,
            max_steps_per_episode=10,
            learning_start=25,
        ).run()
        # 30 steps total, learning from step 25 -> 6 learn calls at most.
        assert 0 < agent.learn_steps <= 6

    def test_target_sync_period(self):
        env = CountingEnv()
        agent = tiny_agent()
        Trainer(
            env,
            agent,
            episodes=4,
            max_steps_per_episode=10,
            target_update_steps=10,
        ).run()
        assert agent.target_syncs == 4

    def test_train_interval(self):
        env = CountingEnv()
        agent = tiny_agent()
        Trainer(
            env,
            agent,
            episodes=2,
            max_steps_per_episode=10,
            train_interval=5,
        ).run()
        # 20 steps, learning every 5th once replay has a minibatch.
        assert agent.learn_steps == 4 - 1 + 1  # step 5, 10, 15, 20

    def test_stats_fields(self):
        env = CountingEnv()
        history = Trainer(
            env, tiny_agent(), episodes=2, max_steps_per_episode=10
        ).run()
        ep = history.episodes[0]
        assert isinstance(ep, EpisodeStats)
        assert ep.steps == 10
        assert ep.termination == "chain-end"
        assert np.isfinite(ep.avg_max_q)
        assert ep.best_score >= ep.final_score or ep.best_score >= 0

    def test_on_episode_end_callback(self):
        seen = []
        Trainer(
            CountingEnv(),
            tiny_agent(),
            episodes=3,
            max_steps_per_episode=5,
            on_episode_end=seen.append,
        ).run()
        assert [e.episode for e in seen] == [0, 1, 2]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Trainer(CountingEnv(), tiny_agent(), episodes=0, max_steps_per_episode=5)

    def test_agent_learns_the_chain(self):
        # After training, the greedy policy should prefer action 0
        # (immediate +1 reward every step).
        env = CountingEnv(horizon=8)
        agent = tiny_agent()
        Trainer(
            env, agent, episodes=30, max_steps_per_episode=8
        ).run()
        rollout = evaluate_policy(
            env, agent, episodes=1, max_steps=8, epsilon=0.0
        )
        assert rollout.max_best_score == pytest.approx(8.0)


class TestTrainingHistory:
    def _history(self, qs, active_from=0):
        h = TrainingHistory()
        for i, q in enumerate(qs):
            h.episodes.append(
                EpisodeStats(
                    episode=i,
                    steps=10,
                    total_reward=1.0,
                    avg_max_q=q,
                    best_score=float(i),
                    final_score=float(i),
                    epsilon=0.1,
                    mean_loss=0.0,
                    learning_active=i >= active_from,
                    termination="x",
                )
            )
        return h

    def test_figure4_series_filters_inactive(self):
        h = self._history([1.0, 2.0, 3.0, 4.0], active_from=2)
        np.testing.assert_array_equal(h.figure4_series(), [3.0, 4.0])

    def test_best_score(self):
        h = self._history([1.0, 2.0])
        assert h.best_score == 1.0

    def test_empty_history(self):
        h = TrainingHistory()
        assert h.best_score == float("-inf")
        assert "(no episodes)" in h.summary()

    def test_summary_contains_curve(self):
        h = self._history([1.0, 5.0, 2.0])
        out = h.summary()
        assert "avg max Q" in out
        assert "best score" in out

    def test_figure4_plot_renders(self):
        h = self._history(list(np.linspace(0, 10, 30)))
        assert "*" in h.figure4_plot()


class TestGreedyRollout:
    def test_returns_best_and_trace(self):
        env = CountingEnv(horizon=5)
        agent = tiny_agent()
        rollout = evaluate_policy(
            env, agent, episodes=1, max_steps=5, epsilon=0.0
        )
        assert rollout.mean_episode_length == 5
        assert np.isfinite(rollout.max_best_score)

    def test_respects_done(self):
        env = CountingEnv(horizon=2)
        agent = tiny_agent()
        rollout = evaluate_policy(
            env, agent, episodes=1, max_steps=100, epsilon=0.0
        )
        assert rollout.mean_episode_length == 2
