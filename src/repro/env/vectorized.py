"""Synchronous vectorized environments: batch the agent's forward pass.

The paper's Algorithm 2 steps one environment at a time, so the
Q-network runs on single states -- wasteful on any vector hardware.
:class:`SyncVectorEnv` steps N independent environment instances in
lockstep and auto-resets finished ones, letting the agent evaluate all N
states in one batched forward (see
:class:`repro.rl.vector_trainer.VectorTrainer`).  With N complexes of
different seeds this doubles as a multi-complex curriculum -- the
training-side half of the generalization story.

Environment stepping itself stays serial here; for process-parallel
stepping use :class:`repro.env.async_vectorized.AsyncVectorEnv`.  Both
satisfy the :class:`repro.env.protocol.VectorEnv` contract and should
be constructed through :func:`repro.env.factory.make_vector_env`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.env.protocol import RESTARTS_METRIC, VectorEnv, coerce_actions


class SyncVectorEnv(VectorEnv):
    """Lockstep wrapper over N gym-flavoured environments.

    All environments must share state dimensionality and action count.
    ``step`` consumes one action per env and returns stacked arrays;
    environments that finish are reset immediately and their *fresh*
    state is returned (the terminal transition's true next-state is
    surfaced in ``infos[i]["terminal_state"]`` so replay stores the
    correct tuple).  See :mod:`repro.env.protocol` for the full
    contract shared with the async backend.
    """

    def __init__(
        self,
        env_fns: Sequence[Callable[[], Any]],
        *,
        tracer=None,
        metrics=None,
    ):
        if not env_fns:
            raise ValueError("need at least one environment")
        #: Optional :class:`repro.telemetry.spans.SpanTracer` /
        #: :class:`repro.telemetry.metrics.MetricsRegistry`; the sync
        #: backend records a "vector-step" span per batch step.
        self.tracer = tracer
        self.metrics = metrics
        self.worker_restarts = 0
        if metrics is not None:
            # In-process envs never restart, but registering the
            # counter keeps telemetry output uniform across backends.
            metrics.counter(RESTARTS_METRIC)
        self.envs = [fn() for fn in env_fns]
        dims = {e.state_dim for e in self.envs}
        acts = {e.n_actions for e in self.envs}
        if len(dims) != 1 or len(acts) != 1:
            raise ValueError(
                f"environments disagree: state dims {dims}, actions {acts}"
            )
        self.state_dim = dims.pop()
        self.n_actions = acts.pop()
        dtypes = {
            np.dtype(getattr(e, "state_dtype", np.float64))
            for e in self.envs
        }
        if len(dtypes) != 1:
            raise ValueError(f"environments disagree: state dtypes {dtypes}")
        #: Dtype of the stacked state arrays (float32 for compact envs).
        self.state_dtype = dtypes.pop()
        specs = {getattr(e, "observation_spec", None) for e in self.envs}
        if len(specs) != 1:
            raise ValueError(
                f"environments disagree: observation specs {specs}"
            )
        #: Shared :class:`~repro.env.observation.ObservationSpec` of the
        #: wrapped envs (None for spec-less custom envs).
        self.observation_spec = specs.pop()

    @property
    def n_envs(self) -> int:
        """Number of wrapped environments."""
        return len(self.envs)

    def reset(self) -> np.ndarray:
        """Reset every env; returns (n_envs, state_dim)."""
        return np.stack(
            [e.reset() for e in self.envs]
        ).astype(self.state_dtype)

    def step(
        self, actions
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Step all envs; returns (states, rewards, dones, infos)."""
        acts = coerce_actions(actions, self.n_envs)
        if self.tracer is None:
            return self._step(acts)
        with self.tracer.span("vector-step"):
            return self._step(acts)

    def _step(self, acts: np.ndarray):
        states = np.empty((self.n_envs, self.state_dim), dtype=self.state_dtype)
        rewards = np.empty(self.n_envs)
        dones = np.zeros(self.n_envs, dtype=bool)
        infos: list[dict] = []
        for i, (env, action) in enumerate(zip(self.envs, acts)):
            state, reward, done, info = env.step(int(action))
            if done:
                # Snapshot: compact envs reuse their emission buffers,
                # and the reset below would otherwise clobber the
                # terminal state the replay needs.
                info = dict(
                    info,
                    terminal_state=np.array(state, dtype=self.state_dtype),
                )
                state = env.reset()
            states[i] = state
            rewards[i] = reward
            dones[i] = done
            infos.append(info)
        return states, rewards, dones, tuple(infos)

    def close(self) -> None:
        """Close every wrapped environment (ignoring missing close)."""
        for e in self.envs:
            close = getattr(e, "close", None)
            if close is not None:
                close()
