"""Compact-state emission end-to-end: engine -> env -> vector -> agent.

The compact hot loop (engine ``dynamic_state`` double-buffering,
``DockingEnv(observation_mode="compact")``, float32 vector-env state
blocks, and the compact agent wiring in the experiment drivers) must
produce exactly the trajectories of the classic dense float64 pipeline
-- the receptor block it factors out is constant, and every cast
involved is the same float64->float32 rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DQNDockingConfig, ci_scale_config
from repro.env.docking_env import DockingEnv
from repro.env.factory import make_env
from repro.env.factory import make_vector_env
from repro.env.flexible_env import FlexibleDockingEnv
from repro.experiments.figure4 import (
    build_agent,
    build_agent_for_env,
    run_figure4_experiment,
)
from repro.metadock.engine import MetadockEngine
from tests.test_nn_float32 import DRIFT_BOUND, relative_drift


@pytest.fixture()
def compact_env(small_complex):
    engine = MetadockEngine(
        small_complex, shift_length=0.8, rotation_angle_deg=5.0
    )
    return DockingEnv(engine, observation_mode="compact")


class TestEngineEmission:
    def test_dynamic_state_matches_state_vector_tail(self, engine):
        engine.reset(observe=False)
        full = engine.state_vector()
        tail = engine.dynamic_state()
        assert tail.dtype == np.float32
        p = engine.static_state().shape[0]
        np.testing.assert_array_equal(
            tail, full[p:].astype(np.float32)
        )
        np.testing.assert_array_equal(
            engine.static_state(), full[:p].astype(np.float32)
        )

    def test_static_state_is_read_only(self, engine):
        with pytest.raises(ValueError):
            engine.static_state()[0] = 1.0

    def test_double_buffering_holds_one_step(self, engine):
        engine.reset(observe=False)
        t0 = engine.dynamic_state()
        engine.apply_action(0)
        t1 = engine.dynamic_state()
        # Two distinct buffers: t0 still valid alongside t1...
        assert t0 is not t1
        held0, held1 = t0.copy(), t1.copy()
        engine.apply_action(0)
        t2 = engine.dynamic_state()
        # ...but the third emission recycles the first buffer.
        assert t2 is t0
        np.testing.assert_array_equal(t1, held1)
        assert not np.array_equal(t0, held0)


class TestCompactEnv:
    def test_emits_float32_tails(self, compact_env):
        state = compact_env.reset()
        assert state.dtype == np.float32
        assert state.shape == (compact_env.engine.dynamic_dim(),)
        assert compact_env.state_dtype == np.float32
        assert compact_env.static_state() is not None

    def test_dense_env_contract_unchanged(self, env):
        state = env.reset()
        assert state.dtype == np.float64
        assert env.state_dtype == np.float64
        assert env.static_state() is None

    def test_full_state_is_prefix_plus_tail(self, compact_env):
        tail = compact_env.reset()
        full = compact_env.engine.state_vector()
        p = compact_env.static_state().shape[0]
        np.testing.assert_array_equal(
            full[p:].astype(np.float32), tail
        )

    def test_same_trajectory_as_dense(self, small_complex):
        def envs():
            dense = DockingEnv(
                MetadockEngine(
                    small_complex, shift_length=0.8,
                    rotation_angle_deg=5.0,
                )
            )
            compact = DockingEnv(
                MetadockEngine(
                    small_complex, shift_length=0.8,
                    rotation_angle_deg=5.0,
                ),
                observation_mode="compact",
            )
            return dense, compact

        dense, compact = envs()
        sd = dense.reset()
        sc = compact.reset()
        p = compact.static_state().shape[0]
        np.testing.assert_array_equal(
            sd[p:].astype(np.float32), sc
        )
        for action in [0, 2, 5, 1, 1, 3]:
            sd, rd, dd, infod = dense.step(action)
            sc, rc, dc, infoc = compact.step(action)
            assert rd == rc and dd == dc
            assert infod["score"] == infoc["score"]
            np.testing.assert_array_equal(
                sd[p:].astype(np.float32), sc
            )

    def test_flexible_env_compact(self, small_complex):
        env = FlexibleDockingEnv(
            small_complex, n_torsions=2, observation_mode="compact"
        )
        state = env.reset()
        assert state.dtype == np.float32
        assert env.n_actions == 12 + 2 * 2


class TestConfigGating:
    def test_distributional_compact_agent_consumes_tails(self):
        cfg = ci_scale_config(
            episodes=2, variant="distributional", observation_mode="compact"
        )
        agent = build_agent(
            cfg, 60, 12, static_state=np.zeros(30, dtype=np.float32)
        )
        assert agent.consumes_tails
        assert agent.head is agent.config.distributional
        q = agent.predict_q(np.ones(30, dtype=np.float32))
        assert q.shape == (12,)

    def test_factory_rejects_multi_complex_compact(self, small_complex):
        from repro.chem.builders import build_complex
        from tests.conftest import SMALL_COMPLEX_CFG
        import dataclasses

        other = build_complex(
            dataclasses.replace(SMALL_COMPLEX_CFG, seed=77)
        )
        cfg = ci_scale_config(episodes=2, observation_mode="compact")
        with pytest.raises(ValueError, match="single shared complex"):
            make_vector_env(
                cfg, builts=[small_complex, other], n_envs=2
            )

    def test_factory_allows_shared_complex_compact(self, small_complex):
        cfg = ci_scale_config(episodes=2, observation_mode="compact")
        venv = make_vector_env(cfg, builts=[small_complex] * 2, n_envs=2)
        try:
            assert venv.state_dtype == np.float32
        finally:
            venv.close()


class TestVectorBackends:
    def test_sync_carries_float32(self, small_complex):
        cfg = ci_scale_config(episodes=2, observation_mode="compact")
        venv = make_vector_env(cfg, builts=[small_complex] * 2, n_envs=2)
        try:
            states = venv.reset()
            assert states.dtype == np.float32
            ns, rewards, dones, infos = venv.step([0, 1])
            assert ns.dtype == np.float32
        finally:
            venv.close()

    def test_sync_terminal_state_is_snapshot(self, small_complex):
        # Drive one env to termination; the surfaced terminal_state must
        # be a private copy, not the engine's reused emission buffer.
        cfg = ci_scale_config(episodes=2, observation_mode="compact")
        venv = make_vector_env(cfg, builts=[small_complex], n_envs=1)
        try:
            venv.reset()
            for _ in range(400):
                states, _, dones, infos = venv.step([0])
                if dones[0]:
                    term = infos[0]["terminal_state"]
                    env = venv.envs[0]
                    assert term is not env.engine._dyn_bufs[0]
                    assert term is not env.engine._dyn_bufs[1]
                    held = term.copy()
                    venv.step([1])
                    np.testing.assert_array_equal(term, held)
                    break
            else:
                pytest.skip("episode never terminated in 400 steps")
        finally:
            venv.close()


class TestEndToEnd:
    def test_figure4_compact_equals_dense(self):
        # The tentpole invariant: compact emission + compact replay +
        # float32 nets produce the *same* training run.  Both modes
        # feed the nets the same float32 bits under the same seeds, so
        # the trajectory (steps, terminations, rewards, scores) is
        # identical; the predicted Q-values agree only to the float32
        # drift bound of docs/PERFORMANCE.md (measured ~1e-7 relative),
        # because a compact agent's first layer is bound to the constant
        # receptor prefix and sums the same products in another order.
        dense_cfg = ci_scale_config(episodes=4, seed=3, max_steps=20)
        compact_cfg = dense_cfg.replace(observation_mode="compact")
        dense = run_figure4_experiment(dense_cfg)
        compact = run_figure4_experiment(compact_cfg)
        assert compact.agent.static_state is not None
        assert compact.agent.replay.prefix_len > 0
        assert (
            dense.history.total_steps == compact.history.total_steps
        )
        assert dense.agent.learn_steps == compact.agent.learn_steps
        for ed, ec in zip(dense.history.episodes, compact.history.episodes):
            assert (ed.steps, ed.termination) == (ec.steps, ec.termination)
            assert ed.total_reward == ec.total_reward
            assert ed.best_score == ec.best_score
            assert ed.final_score == ec.final_score
        assert dense.history.best_score == compact.history.best_score
        assert dense.series.shape == compact.series.shape
        assert relative_drift(compact.series, dense.series) < DRIFT_BOUND

    def test_build_agent_for_env_compact(self, compact_env):
        cfg = ci_scale_config(episodes=2, observation_mode="compact")
        agent = build_agent_for_env(cfg, compact_env)
        assert agent.config.state_dim == compact_env.engine.state_dim()
        assert agent.replay.prefix_len > 0
        tail = compact_env.reset()
        action, q = agent.act(tail, 0)
        assert q.shape[-1] == compact_env.n_actions
        assert 0 <= action < compact_env.n_actions

    def test_vector_trainer_compact(self, small_complex):
        from repro.rl.vector_trainer import VectorTrainer

        cfg = ci_scale_config(
            episodes=2, observation_mode="compact", max_steps=10
        )
        venv = make_vector_env(cfg, builts=[small_complex] * 2, n_envs=2)
        try:
            agent = build_agent(
                cfg,
                venv.envs[0].engine.state_dim(),
                venv.n_actions,
                static_state=venv.envs[0].static_state(),
            )
            stats = VectorTrainer(
                venv, agent,
                learning_start=8, target_update_steps=20,
            ).run(40)
            assert stats.total_steps >= 40
            assert len(agent.replay) > 0
        finally:
            venv.close()


class TestPaperWidth:
    def test_paper_config_slice_learns(self):
        # PAPER_CONFIG on the 2BSM-scale complex, exact scoring: the
        # compact agent must take gradient steps at the full 10,059-wide
        # Q-input.  Only the replay is shrunk (the paper's 400,000
        # transitions are ~0.4 GB even compact); learning starts after
        # 8 steps, and the first learn step waits for a 32-transition
        # minibatch.
        from repro.chem.builders import build_complex
        from repro.config import PAPER_CONFIG
        from repro.rl.trainer import Trainer

        cfg = PAPER_CONFIG.replace(
            episodes=5,
            max_steps_per_episode=40,
            learning_start=8,
            initial_exploration_steps=8,
            replay_capacity=256,
        )
        assert cfg.observation_mode == "compact"
        assert cfg.scoring_method == "exact"
        env = make_env(cfg, build_complex(cfg.complex))
        agent = build_agent_for_env(cfg, env)
        assert env.observation_spec.full_dim == 10_059
        assert agent.config.state_dim == 10_059
        assert agent.q_net.params()[0].shape[0] == 10_059
        assert agent.replay.prefix_len > 0
        history = Trainer(
            env,
            agent,
            episodes=cfg.episodes,
            max_steps_per_episode=cfg.max_steps_per_episode,
            learning_start=cfg.learning_start,
            target_update_steps=cfg.target_update_steps,
        ).run(stop=lambda ep, global_step: global_step >= 40)
        assert sum(ep.steps for ep in history.episodes) >= 40
        assert agent.learn_steps >= 1
        losses = [ep.mean_loss for ep in history.episodes if ep.learning_active]
        assert losses and all(np.isfinite(losses))
