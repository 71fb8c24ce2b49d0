"""Synchronous vectorized environments: batch the agent's forward pass.

The paper's Algorithm 2 steps one environment at a time, so the
Q-network runs on single states -- wasteful on any vector hardware.
:class:`SyncVectorEnv` steps N independent environment instances in
lockstep and auto-resets finished ones, letting the agent evaluate all N
states in one batched forward (see
:class:`repro.rl.vector_trainer.VectorTrainer`).  With N complexes of
different seeds this doubles as a multi-complex curriculum -- the
training-side half of the generalization story.

Environment stepping stays serial, in-process; the multi-process
runtime is the actor/learner trainer (:mod:`repro.rl.distributed`, see
docs/PARALLELISM.md).  Build instances through
:func:`repro.env.factory.make_vector_env`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np


def coerce_actions(actions, n_envs: int) -> np.ndarray:
    """Validate and normalize a batch of actions to 1-D int64.

    Accepts any 1-D integer array-like of length ``n_envs``.  Raises
    :class:`TypeError` for non-integer dtypes (floats are *not*
    silently truncated) and :class:`ValueError` for wrong shape or
    length.
    """
    arr = np.asarray(actions)
    if arr.ndim != 1:
        raise ValueError(
            f"actions must be 1-D (one action per env), got shape {arr.shape}"
        )
    if arr.shape[0] != n_envs:
        raise ValueError(f"expected {n_envs} actions, got {arr.shape[0]}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(
            f"actions must have an integer dtype, got {arr.dtype}; "
            "cast explicitly if your actions really are whole numbers"
        )
    return arr.astype(np.int64, copy=False)


class SyncVectorEnv:
    """Lockstep wrapper over N gym-flavoured environments.

    - ``reset()`` resets every env and returns the stacked fresh states,
      shape ``(n_envs, state_dim)``.
    - ``step(actions)`` takes one action per env (see
      :func:`coerce_actions`) and returns ``(states, rewards, dones,
      infos)``: ``states`` is ``(n_envs, state_dim)`` in
      :attr:`state_dtype`, ``rewards`` ``(n_envs,)`` float64, ``dones``
      ``(n_envs,)`` bool and ``infos`` a tuple of ``n_envs`` dicts.
    - Auto-reset: an env that finishes is reset at once and its row of
      ``states`` holds the *fresh* post-reset state;
      ``infos[i]["terminal_state"]`` carries the true terminal
      next-state (a copy) so replay stores the correct tuple.
    - ``close()`` closes every wrapped env; it is idempotent as long as
      the envs' own ``close`` is.

    All environments must share ``state_dim``, ``n_actions``,
    ``state_dtype`` (default float64; float32 for compact docking
    states) and ``observation_spec``; construction raises
    :class:`ValueError` otherwise.
    """

    def __init__(
        self,
        env_fns: Sequence[Callable[[], Any]],
        *,
        tracer=None,
    ):
        if not env_fns:
            raise ValueError("need at least one environment")
        #: Optional :class:`repro.telemetry.spans.SpanTracer`; records
        #: a "vector-step" span per batch step.
        self.tracer = tracer
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

    def __enter__(self) -> "SyncVectorEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
