"""Seeded pins for the observation codec layer.

Three load-bearing guarantees of PR 7:

1. ``observation_mode="raw"`` (and the new :func:`repro.env.factory.make_env`)
   reproduces the pre-codec pipeline bit-for-bit -- identical episode
   histories and network weights under both :class:`Trainer` and
   :class:`VectorTrainer`, for dense and compact replay;
2. descriptor-mode training is interrupt/resume bit-exact, like every
   other replay flavour (docs/CHECKPOINTS.md);
3. a checkpoint written under one codec refuses to resume under another
   (:class:`CheckpointMismatchError`) instead of silently mis-training.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import ci_scale_config, recorded_observation_mode
from repro.env.factory import make_env, make_vector_env
from repro.experiments.figure4 import build_agent, build_agent_for_env
from repro.nn.checkpoints import CheckpointMismatchError
from repro.rl.trainer import Trainer
from repro.rl.vector_trainer import VectorTrainer
from repro.runtime import (
    RunInterrupted,
    RunLoop,
    RuntimeContext,
    ShutdownGuard,
    read_meta,
)


# ---------------------------------------------------------------------------
# helpers (mirroring tests/test_runtime_checkpoint.py)


def _assert_state_equal(a, b, path=""):
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys {set(a) ^ set(b)}"
        for k in a:
            _assert_state_equal(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        assert np.array_equal(a, b, equal_nan=True), path
    elif isinstance(a, float):
        assert a == b or (a != a and b != b), f"{path}: {a} vs {b}"
    else:
        assert a == b, f"{path}: {a} vs {b}"


def _assert_histories_equal(a, b):
    assert a.total_steps == b.total_steps
    assert len(a.episodes) == len(b.episodes)
    for ea, eb in zip(a.episodes, b.episodes):
        da, db = dataclasses.asdict(ea), dataclasses.asdict(eb)
        assert set(da) == set(db)
        for k in da:
            va, vb = da[k], db[k]
            if isinstance(va, float) and va != va:
                assert vb != vb, (k, va, vb)
            else:
                assert va == vb, (k, va, vb)


def _train(cfg, env):
    """Run cfg's training loop over env; returns (history, agent)."""
    agent = build_agent_for_env(cfg, env)
    trainer = Trainer(
        env,
        agent,
        episodes=cfg.episodes,
        max_steps_per_episode=cfg.max_steps_per_episode,
        learning_start=cfg.learning_start,
        target_update_steps=cfg.target_update_steps,
        train_interval=cfg.train_interval,
    )
    history = trainer.run()
    env.close()
    return history, agent


def _make_trainer(cfg, on_episode_end=None):
    env = make_env(cfg)
    agent = build_agent_for_env(cfg, env)
    trainer = Trainer(
        env,
        agent,
        episodes=cfg.episodes,
        max_steps_per_episode=cfg.max_steps_per_episode,
        learning_start=cfg.learning_start,
        target_update_steps=cfg.target_update_steps,
        train_interval=cfg.train_interval,
        on_episode_end=on_episode_end,
    )
    return env, agent, trainer


def _vector_train(cfg, total=48):
    venv = make_vector_env(cfg, n_envs=2)
    agent = build_agent(cfg, venv.state_dim, venv.n_actions)
    vtrainer = VectorTrainer(
        venv,
        agent,
        learning_start=cfg.learning_start,
        target_update_steps=cfg.target_update_steps,
        train_interval=cfg.train_interval,
    )
    stats = vtrainer.run(total)
    venv.close()
    return stats, agent


# ---------------------------------------------------------------------------
# 1. raw mode == pre-codec pipeline, bit for bit


class TestRawEquivalence:
    def test_trainer_dense(self):
        cfg = ci_scale_config(episodes=4, seed=11, max_steps=12)
        assert cfg.observation_mode == "raw"

        # Default config (pre-PR-7 call sites never named a mode).
        hist_a, agent_a = _train(cfg, make_env(cfg))

        # New factory, explicit raw codec.
        hist_b, agent_b = _train(
            ci_scale_config(
                episodes=4, seed=11, max_steps=12, observation_mode="raw"
            ),
            make_env(cfg),
        )
        _assert_histories_equal(hist_a, hist_b)
        _assert_state_equal(agent_a.state_dict(), agent_b.state_dict())

    def test_trainer_compact_replay(self):
        # An archived config with the legacy compact_states key ==
        # the explicit "compact" codec mode.
        explicit = ci_scale_config(
            episodes=4, seed=7, max_steps=12, observation_mode="compact"
        )
        archived = dataclasses.asdict(explicit.replace(observation_mode="raw"))
        legacy = explicit.replace(
            observation_mode=recorded_observation_mode(
                dict(archived, compact_states=True)
            )
        )
        assert legacy == explicit
        hist_a, agent_a = _train(legacy, make_env(legacy))
        hist_b, agent_b = _train(explicit, make_env(explicit))
        _assert_histories_equal(hist_a, hist_b)
        _assert_state_equal(agent_a.state_dict(), agent_b.state_dict())

    def test_vector_trainer(self):
        cfg = ci_scale_config(episodes=4, seed=13, max_steps=12)
        stats_a, agent_a = _vector_train(cfg)
        stats_b, agent_b = _vector_train(
            ci_scale_config(
                episodes=4, seed=13, max_steps=12, observation_mode="raw"
            )
        )
        _assert_histories_equal(stats_a, stats_b)
        _assert_state_equal(agent_a.state_dict(), agent_b.state_dict())


# ---------------------------------------------------------------------------
# 2. descriptor mode trains and resumes bit-exactly


class TestDescriptorTraining:
    def test_trainer_end_to_end(self):
        cfg = ci_scale_config(
            episodes=3, seed=4, max_steps=10, observation_mode="descriptor"
        )
        env = make_env(cfg)
        spec = env.observation_spec
        agent = build_agent_for_env(cfg, env)
        # The Q-network consumes the descriptor vector directly.
        assert agent.q_net.params()[0].shape[0] == spec.dim
        hist, _ = _train(cfg, env)
        assert len(hist.episodes) == 3
        assert hist.total_steps > 0

    def test_trainer_interrupt_resume_bit_exact(self, tmp_path):
        cfg = ci_scale_config(
            episodes=6,
            seed=3,
            max_steps=12,
            observation_mode="descriptor",
        )

        rt_a = RuntimeContext(tmp_path / "a", checkpoint_every=2)
        env, agent_a, trainer = _make_trainer(cfg)
        hist_a = RunLoop(rt_a, phase="t").run_episodes(trainer)
        env.close()
        state_a = agent_a.state_dict()

        guard = ShutdownGuard()

        def on_end(stats):
            if stats.episode == 2:
                guard.request_stop()

        rt_b = RuntimeContext(tmp_path / "b", checkpoint_every=2, guard=guard)
        env, _, trainer_b = _make_trainer(cfg, on_episode_end=on_end)
        with pytest.raises(RunInterrupted):
            RunLoop(rt_b, phase="t").run_episodes(trainer_b)
        env.close()
        meta = read_meta(rt_b.checkpoint_path("t"))
        assert not meta["complete"]
        # The checkpoint records the codec identity for resume checks.
        assert meta["observation"]["mode"] == "descriptor"

        rt_c = RuntimeContext(tmp_path / "b", checkpoint_every=2)
        env, agent_c, trainer_c = _make_trainer(cfg)
        hist_b = RunLoop(rt_c, phase="t").run_episodes(trainer_c)
        env.close()

        _assert_histories_equal(hist_a, hist_b)
        _assert_state_equal(agent_c.state_dict(), state_a)

    def test_vector_interrupt_resume_bit_exact(self, tmp_path):
        cfg = ci_scale_config(
            episodes=4, seed=5, max_steps=12, observation_mode="descriptor"
        )
        total, segment = 48, 24

        def make(ctx):
            venv = make_vector_env(cfg, n_envs=2)
            agent = build_agent(cfg, venv.state_dim, venv.n_actions)
            vt = VectorTrainer(
                venv,
                agent,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
            )
            stats = RunLoop(ctx, phase="v").run_steps(vt, total)
            venv.close()
            return stats, agent

        rt_a = RuntimeContext(tmp_path / "a", checkpoint_every=segment)
        stats_a, agent_a = make(rt_a)
        state_a = agent_a.state_dict()

        class _StopAfterCheckpoint:
            def __init__(self, runtime):
                self._runtime = runtime

            @property
            def stop_requested(self):
                path = self._runtime.checkpoint_path("v")
                if not path.exists():
                    return False
                return read_meta(path).get("global_step", 0) >= segment

        rt_b = RuntimeContext(tmp_path / "b", checkpoint_every=segment)
        rt_b.guard = _StopAfterCheckpoint(rt_b)
        with pytest.raises(RunInterrupted):
            make(rt_b)

        rt_c = RuntimeContext(tmp_path / "b", checkpoint_every=segment)
        stats_b, agent_c = make(rt_c)
        assert stats_b.total_steps == total
        _assert_histories_equal(stats_a, stats_b)
        _assert_state_equal(agent_c.state_dict(), state_a)


# ---------------------------------------------------------------------------
# 3. resume refuses a codec swap


class TestCodecMismatch:
    def test_trainer_resume_rejects_other_codec(self, tmp_path):
        raw = ci_scale_config(episodes=6, seed=3, max_steps=12)
        guard = ShutdownGuard()

        def on_end(stats):
            if stats.episode == 2:
                guard.request_stop()

        rt = RuntimeContext(tmp_path, checkpoint_every=2, guard=guard)
        env, _, trainer = _make_trainer(raw, on_episode_end=on_end)
        with pytest.raises(RunInterrupted):
            RunLoop(rt, phase="t").run_episodes(trainer)
        env.close()
        assert read_meta(rt.checkpoint_path("t"))["observation"]["mode"] == (
            "raw"
        )

        desc = ci_scale_config(
            episodes=6, seed=3, max_steps=12, observation_mode="descriptor"
        )
        rt2 = RuntimeContext(tmp_path, checkpoint_every=2)
        env, _, trainer_b = _make_trainer(desc)
        with pytest.raises(CheckpointMismatchError, match="observation"):
            RunLoop(rt2, phase="t").run_episodes(trainer_b)
        env.close()

    def test_pre_pr7_checkpoint_still_resumes(self, tmp_path):
        # Checkpoints written before the codec layer carry no
        # "observation" meta key; the load-time upgrade reads that as
        # "spec-less" and resume must not reject them.
        from repro.runtime.checkpoint import Checkpoint
        from repro.runtime.loop import _check_observation, upgrade_checkpoint

        spec = make_env(ci_scale_config(4)).observation_spec
        old = Checkpoint(state={}, meta={"mode": "episodes", "history": {}})
        _check_observation(upgrade_checkpoint(old).meta, spec)
        _check_observation({"observation": None}, spec)
        _check_observation({"observation": spec.as_dict()}, spec)
        with pytest.raises(CheckpointMismatchError):
            _check_observation(
                {"observation": dict(spec.as_dict(), mode="descriptor")},
                spec,
            )
