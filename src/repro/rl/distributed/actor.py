"""The actor worker process of the actor/learner runtime.

Each actor owns one environment (with its own engine and scorer), an
epsilon-greedy *sidecar* copy of the Q-network refreshed from the
:class:`~repro.rl.distributed.weights.SharedWeightBlock`, and one
:class:`~repro.env.comm.TransitionRing` it produces into.  The parent
commands it over a pipe in *segments* -- fixed per-actor transition
quotas whose boundaries the learner aligns with checkpoint boundaries
-- so the whole pipeline stays deterministic:

- actor ``a`` of ``N`` acts at global indices ``g = t * N + a`` (``t``
  its local step), and its epsilon is evaluated at exactly ``g``;
- before acting at local step ``t`` with ``t % sync_every == 0`` it
  blocking-fetches weight version ``t // sync_every`` -- never "the
  latest", which would make trajectories timing-dependent;
- the per-actor policy RNG stream (``actor-<i>-policy``) is reported
  back at every segment end and restored at segment start, so resumed
  runs replay bit-identically;
- each segment starts from a fresh ``env.reset()`` (segment boundaries
  are episode boundaries, mirroring ``RunLoop.run_steps``) and the
  actor enforces ``max_steps_per_episode`` locally.

Workers mask SIGINT/SIGTERM on entry (see
:func:`repro.runtime.signals.mask_worker_signals`): only the learner
coordinates shutdown, via the pipe and the weight block's stop flag.
"""

from __future__ import annotations

import traceback
from typing import Callable

import numpy as np

from repro.rl.schedules import EpsilonGreedy
from repro.runtime.signals import mask_worker_signals
from repro.utils.rng import RngFactory, generator_state, restore_generator


def policy_stream_name(index: int) -> str:
    """The :class:`~repro.utils.rng.RngFactory` stream of actor ``index``."""
    return f"actor-{index}-policy"


class Sidecar:
    """The actor's private copy of the online Q-network.

    ``q_net`` is cloned from the learner's network before the fork, so
    in compact mode its first layer is already bound to the receptor
    prefix and takes the env's bare tails as they are.  :meth:`refresh`
    is the only way weights enter it: the fetch writes the parameter
    arrays in place, so every applied version must also drop what the
    network derived from the previous one (the prefix-bound layer's
    cached bias) -- otherwise the actor would keep acting on stale
    weights for 9,792 of its 10,059 inputs.  ``head`` is the agent's
    value head (``DQNAgent.head``): Q-values are read off the network
    the way the learner reads them.
    """

    def __init__(self, q_net, weights, head):
        self.q_net = q_net
        self.head = head
        self.version = -1
        self._params = q_net.params()
        self._weights = weights

    def refresh(self, version: int) -> bool:
        """Blocking-fetch exactly ``version``; False means shutdown."""
        if version == self.version:
            return True
        if not self._weights.fetch(version, self._params):
            return False
        self.q_net.weights_changed()
        self.version = version
        return True

    def predict(self, state) -> np.ndarray:
        """Q-values for one emitted state (a bare tail in compact mode)."""
        return self.head.q_values(self.q_net, np.asarray(state))


def actor_worker(
    index: int,
    n_actors: int,
    env_fn: Callable,
    ring,
    weights,
    conn,
    q_net,
    *,
    head,
    schedule,
    exploration_steps: int,
    n_actions: int,
    sync_every: int,
    max_steps_per_episode: int,
    seed: int,
) -> None:
    """Worker main: answer ``segment``/``close`` commands from the pipe.

    ``q_net`` is the sidecar network (cloned pre-fork, so the child
    inherits the structure and overwrites the weights via fetches) and
    ``head`` the agent's value head that reads Q-values off it.
    Each ``segment`` command carries ``{"quota", "start_local_step",
    "rng_state"}``; the reply is ``("done", {"rng_state", "pushed"})``.
    """
    mask_worker_signals()
    env = None
    try:
        env = env_fn()
        policy = EpsilonGreedy(
            schedule,
            n_actions,
            exploration_steps=exploration_steps,
            rng=RngFactory(seed).get(policy_stream_name(index)),
        )
        sidecar = Sidecar(q_net, weights, head)
        conn.send(("ready", None))
        while True:
            cmd, data = conn.recv()
            if cmd == "close":
                conn.send(("closed", None))
                return
            if cmd != "segment":
                conn.send(("error", f"unknown command {cmd!r}"))
                return
            quota = int(data["quota"])
            t = int(data["start_local_step"])
            if data.get("rng_state") is not None:
                restore_generator(policy.rng, data["rng_state"])
            state = env.reset()
            ep_steps = 0
            pushed = 0
            while pushed < quota:
                if t % sync_every == 0 and not sidecar.refresh(
                    t // sync_every
                ):
                    return  # stop flag: shutdown
                q = sidecar.predict(state)
                action = policy.select(q, t * n_actors + index)
                next_state, reward, done, info = env.step(int(action))
                ep_steps += 1
                # Push before any reset: compact envs reuse their
                # emission buffers and a reset would clobber the
                # terminal next_state.
                if not ring.push(
                    state,
                    next_state,
                    action,
                    reward,
                    done,
                    score=float(info.get("score", float("nan"))),
                    max_q=float(np.max(q)),
                    crystal_rmsd=float(
                        info.get("crystal_rmsd", float("nan"))
                    ),
                    stop=weights.stop_requested,
                ):
                    return  # stop flag: shutdown
                t += 1
                pushed += 1
                if done or ep_steps >= max_steps_per_episode:
                    # Truncation stores the transition non-terminal
                    # (done as reported by the env), matching the
                    # sequential trainer's time-limit semantics; the
                    # learner reconstructs the same boundary from its
                    # own step count.
                    state = env.reset()
                    ep_steps = 0
                else:
                    state = next_state
            conn.send(
                (
                    "done",
                    {
                        "rng_state": generator_state(policy.rng),
                        "pushed": pushed,
                    },
                )
            )
    except (EOFError, BrokenPipeError):  # pragma: no cover - teardown race
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        if env is not None:
            close = getattr(env, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - best effort
                    pass
        conn.close()
