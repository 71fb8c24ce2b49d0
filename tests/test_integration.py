"""End-to-end integration: the full stack wired together."""

import numpy as np
import pytest

from repro import quick_training_run
from repro.chem.builders import build_complex
from repro.env.factory import make_env
from repro.env.wrappers import TimeLimit
from repro.experiments.figure4 import build_agent
from repro.metadock.metaheuristic import MetaheuristicSchema
from repro.metadock.strategies import scatter_search_params
from repro.rl.evaluation import evaluate_policy
from repro.rl.trainer import Trainer


class TestQuickTrainingRun:
    def test_runs_and_summarizes(self):
        result = quick_training_run(episodes=5, seed=0)
        assert len(result.history.episodes) == 5
        assert "episodes: 5" in result.summary()


class TestFullStackTraining:
    def test_wrapped_env_training(self, tiny_run_config):
        cfg = tiny_run_config
        built = build_complex(cfg.complex)
        env = TimeLimit(make_env(cfg, built), cfg.max_steps_per_episode)
        try:
            agent = build_agent(cfg, env.state_dim, env.n_actions)
            history = Trainer(
                env,
                agent,
                episodes=4,
                max_steps_per_episode=cfg.max_steps_per_episode,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
            ).run()
            assert len(history.episodes) == 4
            assert np.isfinite(history.best_score)
        finally:
            env.close()

    def test_docking_trace_reports_finite_scores(self, tiny_run_config):
        # Every step of a docking episode reports a finite score and
        # receptor-ligand distance in its info dict.
        built = build_complex(tiny_run_config.complex)
        env = make_env(tiny_run_config, built)
        try:
            env.reset()
            trace = [env.step(a)[3] for a in [0, 5, 5, 5]]
            assert len(trace) == 4
            assert all(np.isfinite(t["score"]) for t in trace)
            assert all(np.isfinite(t["com_distance"]) for t in trace)
        finally:
            env.close()

    def test_trained_agent_checkpoint_roundtrip(self, tmp_path, tiny_run_config):
        from repro.nn.checkpoints import load_network, save_network

        cfg = tiny_run_config
        built = build_complex(cfg.complex)
        env = make_env(cfg, built)
        try:
            agent = build_agent(cfg, env.state_dim, env.n_actions)
            Trainer(
                env, agent, episodes=2,
                max_steps_per_episode=cfg.max_steps_per_episode,
            ).run()
            path = tmp_path / "agent.npz"
            save_network(agent.q_net, path)
            clone = build_agent(cfg, env.state_dim, env.n_actions)
            load_network(clone.q_net, path)
            s = env.reset()
            np.testing.assert_allclose(
                agent.predict_q(s), clone.predict_q(s)
            )
        finally:
            env.close()


class TestSearchVsEngineConsistency:
    def test_metaheuristic_best_pose_rescoreable(self, engine):
        res = MetaheuristicSchema(
            engine, scatter_search_params(200), seed=0
        ).run()
        rescored = engine.score_pose(res.best_pose)
        assert rescored == pytest.approx(res.best_score, rel=1e-9)

    def test_greedy_rollout_on_docking_env(self, tiny_run_config):
        built = build_complex(tiny_run_config.complex)
        env = make_env(tiny_run_config, built)
        try:
            agent = build_agent(tiny_run_config, env.state_dim, env.n_actions)
            rollout = evaluate_policy(
                env, agent, episodes=1, max_steps=15, epsilon=0.0
            )
            assert rollout.mean_episode_length <= 15
            assert np.isfinite(rollout.max_best_score)
        finally:
            env.close()


class TestCrossSeedStability:
    def test_three_seeds_complete(self):
        for seed in range(3):
            result = quick_training_run(episodes=3, seed=seed)
            assert len(result.history.episodes) == 3

    def test_different_seeds_different_trajectories(self):
        a = quick_training_run(episodes=3, seed=0)
        b = quick_training_run(episodes=3, seed=1)
        assert not np.allclose(
            [e.total_reward for e in a.history.episodes],
            [e.total_reward for e in b.history.episodes],
        )
