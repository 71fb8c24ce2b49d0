"""The formal ``VectorEnv`` protocol shared by every vector backend.

The paper's Section 5 names serial engine<->agent stepping as the main
throughput limitation: one trainer drives one environment, so the
scoring hot path (Eq. 1 over thousands of receptor atoms) never uses
more than one core.  Everything that batches environments -- the
in-process :class:`repro.env.vectorized.SyncVectorEnv`, the
process-parallel :class:`repro.env.async_vectorized.AsyncVectorEnv`,
and whatever future backends (sharded, remote) come next -- implements
this one contract, so trainers and experiments stay backend-agnostic.

The contract
------------

- ``reset() -> np.ndarray`` of shape ``(n_envs, state_dim)``: resets
  every wrapped environment and returns the stacked fresh states.
- ``step(actions)`` consumes **any 1-D integer array-like** of length
  ``n_envs`` (list, tuple, or integer ndarray).  Float, boolean, or
  otherwise non-integer dtypes raise :class:`TypeError`; wrong
  dimensionality or length raises :class:`ValueError`.  It returns a
  4-tuple ``(states, rewards, dones, infos)``:

  * ``states`` -- ``(n_envs, state_dim)``; float64 by default, but an
    environment may advertise a ``state_dtype`` attribute (e.g. the
    float32 compact docking states of
    ``DockingEnv(observation_mode="compact")``) and every backend then
    carries that dtype end-to-end, including through the async
    backend's shared-memory block.  For environments that finished
    this step, the row holds the **fresh post-reset state**
    (auto-reset), not the terminal state;
  * ``rewards`` -- ``(n_envs,)`` float64;
  * ``dones`` -- ``(n_envs,)`` bool;
  * ``infos`` -- a **tuple** of ``n_envs`` dicts.  When ``dones[i]``
    is true, ``infos[i]["terminal_state"]`` carries the true terminal
    next-state so replay can store the correct transition tuple.

- ``close()`` releases every wrapped environment (and, for process
  backends, reaps the worker processes).  It is idempotent.
- ``state_dim`` / ``n_actions`` -- shared by all wrapped environments;
  construction fails with :class:`ValueError` if they disagree.
- ``state_dtype`` -- dtype of the stacked state arrays, resolved from
  the wrapped environments' ``state_dtype`` attribute (default
  float64 when absent).
- ``n_envs`` -- the number of wrapped environments.
- ``worker_restarts`` -- how many crashed workers were respawned so
  far (always 0 for in-process backends).

Construct backends through :func:`repro.env.factory.make_vector_env`
rather than directly; the factory picks the backend, threads telemetry
through, and is the single place experiments/CLI configure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: Registry key for the crashed-and-respawned worker counter.  Every
#: backend registers it eagerly when given a metrics registry, so a
#: restart-free run still reports an explicit 0 in telemetry output.
RESTARTS_METRIC = "vector_env/worker_restarts"
#: Registry key for the async backend's dispatch-to-last-answer gauge.
QUEUE_WAIT_METRIC = "vector_env/queue_wait_seconds"


def coerce_actions(actions, n_envs: int) -> np.ndarray:
    """Validate and normalize a batch of actions to 1-D int64.

    Accepts any 1-D integer array-like of length ``n_envs``.  Raises
    :class:`TypeError` for non-integer dtypes (floats are *not*
    silently truncated) and :class:`ValueError` for wrong shape or
    length -- the shared input contract of every ``VectorEnv`` backend.
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


class VectorEnv(ABC):
    """Abstract base for N-environment lockstep backends.

    See the module docstring for the full semantic contract.  Concrete
    backends: :class:`repro.env.vectorized.SyncVectorEnv` (serial,
    in-process) and :class:`repro.env.async_vectorized.AsyncVectorEnv`
    (one subprocess per environment, shared-memory exchange).
    """

    #: Shared state-vector length of the wrapped environments.
    state_dim: int
    #: Shared action count of the wrapped environments.
    n_actions: int
    #: Crashed-and-respawned worker count (0 for in-process backends).
    worker_restarts: int = 0

    @property
    @abstractmethod
    def n_envs(self) -> int:
        """Number of wrapped environments."""

    @abstractmethod
    def reset(self) -> np.ndarray:
        """Reset every env; returns ``(n_envs, state_dim)`` states."""

    @abstractmethod
    def step(
        self, actions
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Step all envs; returns ``(states, rewards, dones, infos)``."""

    @abstractmethod
    def close(self) -> None:
        """Release wrapped environments (idempotent)."""

    def __enter__(self) -> "VectorEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
