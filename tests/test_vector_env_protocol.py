"""Vector-env semantics shared by the sync and async backends.

Both :class:`~repro.env.vectorized.SyncVectorEnv` and
:class:`~repro.env.async_vectorized.AsyncVectorEnv` must satisfy the
:class:`repro.env.protocol.VectorEnv` contract identically: same
shapes, same auto-reset/terminal-state semantics, same validation
errors, and -- given the same seeds -- the *same transition stream*.
The async-only robustness paths (worker crash -> respawn, telemetry
metrics) are exercised at the bottom.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.env.async_vectorized import (
    QUEUE_WAIT_METRIC,
    RESTARTS_METRIC,
    AsyncVectorEnv,
)
from repro.env.factory import make_vector_env, resolve_backend
from repro.env.protocol import VectorEnv, coerce_actions
from repro.env.vectorized import SyncVectorEnv
from repro.rl.vector_trainer import VectorTrainer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer

from tests.test_rl_trainer import CountingEnv, tiny_agent

BACKENDS = ["sync", "async"]

fork_required = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="async backend needs a fork-capable platform for env thunks",
)


class SeededWalkEnv:
    """Deterministic-per-seed random walk; drives the equivalence test.

    Transitions depend only on the env's own RNG stream and the action
    sequence, so two backends fed the same seeds and actions must
    produce bit-identical states/rewards/dones.
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


def venv_for(backend, env_fns, **kw):
    if backend == "async":
        kw.setdefault("step_timeout", 20.0)
    return make_vector_env(env_fns=env_fns, backend=backend, **kw)


@fork_required
@pytest.mark.parametrize("backend", BACKENDS)
class TestSharedContract:
    def test_reset_and_step_shapes(self, backend):
        with venv_for(backend, walk_fns(3)) as venv:
            assert isinstance(venv, VectorEnv)
            states = venv.reset()
            assert states.shape == (3, 3)
            assert states.dtype == np.float64
            s, r, d, infos = venv.step([0, 1, 2])
            assert s.shape == (3, 3)
            assert r.shape == (3,)
            assert d.shape == (3,) and d.dtype == bool
            assert isinstance(infos, tuple) and len(infos) == 3

    def test_auto_reset_returns_fresh_state(self, backend):
        with venv_for(
            backend, [lambda: CountingEnv(horizon=2)]
        ) as venv:
            venv.reset()
            venv.step([0])
            states, _r, dones, infos = venv.step([0])
            assert dones[0]
            # Fresh post-reset state in the batch; the true terminal
            # next-state rides in the info dict.
            np.testing.assert_array_equal(states[0], [0.0, 0.0])
            assert infos[0]["terminal_state"][1] == 2.0

    def test_action_validation(self, backend):
        with venv_for(backend, walk_fns(2)) as venv:
            venv.reset()
            with pytest.raises(ValueError):
                venv.step([0])
            with pytest.raises(ValueError):
                venv.step(np.zeros((2, 2), dtype=int))
            with pytest.raises(TypeError):
                venv.step(np.array([0.0, 1.0]))

    def test_returned_states_not_aliased(self, backend):
        # A second step must not mutate arrays handed out earlier
        # (the async backend returns copies of its shared block).
        with venv_for(backend, walk_fns(2)) as venv:
            venv.reset()
            s1, r1, _d, _i = venv.step([1, 1])
            s1_snap, r1_snap = s1.copy(), r1.copy()
            venv.step([2, 2])
            np.testing.assert_array_equal(s1, s1_snap)
            np.testing.assert_array_equal(r1, r1_snap)

    def test_mismatched_envs_rejected(self, backend):
        fns = [
            lambda: SeededWalkEnv(0, state_dim=3),
            lambda: SeededWalkEnv(1, state_dim=5),
        ]
        with pytest.raises(ValueError, match="disagree"):
            venv_for(backend, fns)

    def test_trainer_runs_on_backend(self, backend):
        with venv_for(
            backend, [lambda: CountingEnv(horizon=6)] * 2
        ) as venv:
            history = VectorTrainer(venv, tiny_agent()).run(total_steps=24)
            assert history.total_steps == 24
            assert [e.steps for e in history.episodes] == [6] * 4
            assert venv.worker_restarts == 0


@fork_required
class TestSyncAsyncEquivalence:
    def test_identical_transition_streams(self):
        seeds = [11, 22, 33]
        actions = np.random.default_rng(0).integers(4, size=(20, 3))
        streams = {}
        for backend in BACKENDS:
            with venv_for(backend, walk_fns(3, seeds)) as venv:
                rows = [venv.reset()]
                rewards, dones = [], []
                for a in actions:
                    s, r, d, _ = venv.step(a)
                    rows.append(s)
                    rewards.append(r)
                    dones.append(d)
                streams[backend] = (
                    np.stack(rows), np.stack(rewards), np.stack(dones),
                )
        for sync_part, async_part in zip(streams["sync"], streams["async"]):
            np.testing.assert_array_equal(sync_part, async_part)

    def test_terminal_states_match(self):
        results = {}
        for backend in BACKENDS:
            with venv_for(
                backend, [lambda: SeededWalkEnv(7, horizon=3)]
            ) as venv:
                venv.reset()
                terminals = []
                for _ in range(7):
                    _s, _r, d, infos = venv.step([1])
                    if d[0]:
                        terminals.append(infos[0]["terminal_state"])
                results[backend] = np.stack(terminals)
        np.testing.assert_array_equal(results["sync"], results["async"])


class CrashyEnv(CountingEnv):
    """Counting env that hard-kills its own process on action 9."""

    def __init__(self):
        super().__init__(horizon=100)
        self.n_actions = 10

    def step(self, action):
        if action == 9:
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        return super().step(action)


class HangingEnv(CountingEnv):
    """Counting env that sleeps past any reasonable timeout on action 9."""

    def __init__(self):
        super().__init__(horizon=100)
        self.n_actions = 10

    def step(self, action):
        if action == 9:
            time.sleep(60.0)
        return super().step(action)


@fork_required
class TestAsyncRobustness:
    def test_killed_worker_respawns(self):
        registry = MetricsRegistry()
        with make_vector_env(
            env_fns=[CrashyEnv, CrashyEnv],
            backend="async",
            metrics=registry,
            step_timeout=20.0,
        ) as venv:
            venv.reset()
            venv.step([0, 0])
            # Worker 0 dies mid-step; the run must carry on.
            states, rewards, dones, infos = venv.step([9, 0])
            assert venv.worker_restarts == 1
            assert dones[0] and not dones[1]
            assert rewards[0] == 0.0
            assert infos[0]["worker_restarted"]
            # The discarded episode's terminal state is the pre-crash
            # state; the returned row is the respawned env's reset.
            np.testing.assert_array_equal(
                infos[0]["terminal_state"], [1.0, 1.0]
            )
            np.testing.assert_array_equal(states[0], [0.0, 0.0])
            # And the respawned worker keeps stepping.
            s, _r, d, _i = venv.step([0, 0])
            assert not d.any()
            np.testing.assert_array_equal(s[0], [1.0, 1.0])
        assert registry.counter(RESTARTS_METRIC).value == 1

    def test_hung_worker_times_out_and_respawns(self):
        with make_vector_env(
            env_fns=[HangingEnv],
            backend="async",
            step_timeout=1.0,
        ) as venv:
            venv.reset()
            _s, _r, dones, infos = venv.step([9])
            assert dones[0]
            assert infos[0]["worker_restarted"]
            assert "hung" in infos[0]["worker_crash_reason"]
            assert venv.worker_restarts == 1

    def test_restart_budget_enforced(self):
        from repro.env.async_vectorized import WorkerCrashError

        venv = make_vector_env(
            env_fns=[CrashyEnv],
            backend="async",
            max_restarts=1,
            step_timeout=20.0,
        )
        try:
            venv.reset()
            venv.step([9])  # first crash: within budget
            with pytest.raises(WorkerCrashError):
                venv.step([9])  # second crash: budget exhausted
        finally:
            venv.close()

    def test_trainer_survives_worker_crash(self):
        # Epsilon-greedy will eventually hit the kill action; the run
        # must finish and the env report the respawn.
        registry = MetricsRegistry()
        with make_vector_env(
            env_fns=[CrashyEnv] * 2,
            backend="async",
            metrics=registry,
            step_timeout=20.0,
        ) as venv:
            agent = tiny_agent(n_actions=10)
            history = VectorTrainer(venv, agent).run(total_steps=60)
            assert history.total_steps == 60
            assert venv.worker_restarts >= 1
            assert (
                registry.counter(RESTARTS_METRIC).value
                == venv.worker_restarts
            )

    def test_telemetry_metrics_and_spans(self):
        registry = MetricsRegistry()
        tracer = SpanTracer()
        with make_vector_env(
            env_fns=walk_fns(2),
            backend="async",
            metrics=registry,
            tracer=tracer,
            step_timeout=20.0,
        ) as venv:
            venv.reset()
            venv.step([0, 1])
        assert RESTARTS_METRIC in registry  # registered even when 0
        assert registry.counter(RESTARTS_METRIC).value == 0
        assert registry.gauge(QUEUE_WAIT_METRIC).value >= 0.0
        assert tracer.get("vector-step") is not None
        assert tracer.get("vector-step/queue-wait").count == 1

    def test_env_exception_propagates(self):
        with make_vector_env(
            env_fns=[lambda: SeededWalkEnv(0)],
            backend="async",
            step_timeout=20.0,
        ) as venv:
            # step before reset: the worker env raises; that is a bug,
            # not an infrastructure crash, so it must surface.
            with pytest.raises(RuntimeError, match="worker 0 raised"):
                venv.step([0])

    def test_close_reaps_workers_and_is_idempotent(self):
        venv = make_vector_env(env_fns=walk_fns(2), backend="async")
        procs = list(venv._procs)
        venv.reset()
        venv.close()
        venv.close()
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            venv.reset()


class TestFactory:
    def test_backend_resolution(self, monkeypatch):
        assert resolve_backend("sync", 4) == "sync"
        assert resolve_backend("async", 1) == "async"
        with pytest.raises(ValueError):
            resolve_backend("thread", 2)
        import repro.env.factory as factory_mod

        monkeypatch.setattr(factory_mod.os, "cpu_count", lambda: 8)
        assert resolve_backend("auto", 4) in {"sync", "async"}
        monkeypatch.setattr(factory_mod.os, "cpu_count", lambda: 1)
        assert resolve_backend("auto", 4) == "sync"
        monkeypatch.setattr(factory_mod.os, "cpu_count", lambda: 8)
        assert resolve_backend("auto", 1) == "sync"

    def test_auto_uses_async_on_multicore_fork(self, monkeypatch):
        import repro.env.factory as factory_mod

        monkeypatch.setattr(factory_mod.os, "cpu_count", lambda: 8)
        if "fork" in mp.get_all_start_methods():
            assert resolve_backend("auto", 4) == "async"

    def test_requires_config_or_env_fns(self):
        with pytest.raises(ValueError, match="config or env_fns"):
            make_vector_env()

    def test_backend_options_rejected_for_sync(self):
        with pytest.raises(ValueError, match="async"):
            make_vector_env(
                env_fns=walk_fns(1), backend="sync", step_timeout=5.0
            )

    def test_builds_from_config(self):
        from repro.config import ci_scale_config

        cfg = ci_scale_config(episodes=2, seed=0, max_steps=5)
        venv = make_vector_env(cfg, n_envs=2, backend="sync")
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
