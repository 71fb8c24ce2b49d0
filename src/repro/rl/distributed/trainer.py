"""The learner process of the actor/learner training runtime.

:class:`ActorLearnerTrainer` spawns N actor processes (fork start
method: env thunks, transition rings, the weight block, and the sidecar
networks are inherited, not pickled), then consumes their transitions
into the agent's replay and drives gradient updates through the shared
:class:`~repro.rl.learner.LearnerCore` -- the exact update density of
the sequential and vector trainers at equal transition counts.

Determinism is the design center (docs/PARALLELISM.md has the full
argument):

- transitions enter the replay in **round-robin** order -- transition
  number ``g`` comes from actor ``g % N`` at its local step ``g // N``
  -- so replay contents, learn cadence, and RNG consumption are
  identical run-to-run regardless of OS scheduling;
- weights are broadcast on a fixed schedule: version ``k`` is published
  when the consumed count crosses ``k * N * sync_every`` and actor
  ``a`` blocking-fetches exactly version ``k`` before its local step
  ``k * sync_every`` (the schedule is deadlock-free: every transition
  an actor must produce before the learner can publish version ``k``
  only needs versions ``< k``);
- segments (one ``run`` call each) give every actor an exact quota of
  ``(total - start) / N`` transitions, so rings drain to empty at every
  boundary and a checkpoint needs only the actor RNG streams and
  counters -- never in-flight ring contents.

Prefetch: while blocked on the round-robin-next actor's ring, the
learner opportunistically drains *every* ring into per-actor pending
queues, freeing slots early (less backpressure) and keeping batches
ready; the time it still spends blocked is the ``learner-idle-fraction``
telemetry gauge.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from typing import Callable, Sequence

import numpy as np

from repro.env.comm import TransitionRing
from repro.rl.distributed.actor import actor_worker
from repro.rl.distributed.weights import SharedWeightBlock
from repro.rl.learner import LearnerCore, TrainingHistory
from repro.telemetry.spans import SpanTracer

#: Seconds to wait for an actor to come up / acknowledge a command.
_ACTOR_TIMEOUT = 120.0

#: Metric-name prefix for all actor/learner telemetry.
METRIC_PREFIX = "actor_learner"


class ActorDiedError(RuntimeError):
    """An actor process exited outside the shutdown protocol."""


class ActorLearnerTrainer:
    """N actor processes feeding one learner through shared memory.

    Parameters
    ----------
    env_fns:
        One environment thunk per actor (each builds its *own* env +
        engine + scorer inside the child).
    agent:
        The learner-side :class:`~repro.rl.agent.DQNAgent` (owns replay,
        optimizer, and both networks).  NoisyNet agents are not
        supported -- the sidecar cannot replicate their noise state.
    state_dim / state_dtype:
        Shape/dtype of the states the envs *emit* (the tail dimension in
        compact mode); sizes the per-actor transition rings.
    sync_every:
        Actor-local steps between sidecar weight refreshes.
    ring_capacity:
        Slots per actor ring; a full ring backpressures its actor.
    max_steps_per_episode:
        Actor-local episode truncation (Table 1's T); the learner
        reconstructs the same boundaries from its own step counts.
    learning_start / target_update_steps / train_interval:
        The shared :class:`~repro.rl.learner.LearnerCore` cadence.
    observation_spec:
        Optional codec spec; exposed for checkpoint validation.
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry` for
        the per-actor telemetry.
    """

    def __init__(
        self,
        env_fns: Sequence[Callable],
        agent,
        *,
        state_dim: int,
        state_dtype=np.float64,
        sync_every: int = 50,
        ring_capacity: int = 256,
        max_steps_per_episode: int,
        learning_start: int = 0,
        target_update_steps: int = 1000,
        train_interval: int = 1,
        observation_spec=None,
        tracer: SpanTracer | None = None,
        metrics=None,
        seed: int = 0,
        on_episode_end=None,
    ):
        if not env_fns:
            raise ValueError("need at least one env_fn")
        if sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        if max_steps_per_episode < 1:
            raise ValueError("max_steps_per_episode must be >= 1")
        if agent.config.noisy:
            raise ValueError(
                "actor-learner training does not support NoisyNet "
                "exploration (sidecar noise state cannot be replicated)"
            )
        if agent.static_state is not None and not agent.consumes_tails:
            raise ValueError(
                "compact actor-learner training needs a Dense first "
                "layer (the sidecar feeds it the env's bare tails)"
            )
        self.env_fns = list(env_fns)
        self.num_actors = len(self.env_fns)
        self.agent = agent
        self.core = LearnerCore(
            agent,
            learning_start=learning_start,
            target_update_steps=target_update_steps,
            train_interval=train_interval,
            on_episode_end=on_episode_end,
        )
        self.state_dim = int(state_dim)
        self.state_dtype = np.dtype(state_dtype)
        self.sync_every = int(sync_every)
        self.ring_capacity = int(ring_capacity)
        self.max_steps = int(max_steps_per_episode)
        self.observation_spec = observation_spec
        self.tracer = tracer
        self.metrics = metrics
        self.seed = int(seed)
        #: Global transitions between weight broadcasts.
        self.publish_every = self.num_actors * self.sync_every
        self._weight_version = -1  # latest published version
        self._actor_rng: list = [None] * self.num_actors
        self._procs: list | None = None
        self._conns: list = []
        self._rings: list[TransitionRing] = []
        self._weights: SharedWeightBlock | None = None
        self._closed = False

    @property
    def history(self) -> TrainingHistory:
        """The run record (accumulates across ``run`` calls)."""
        return self.core.history

    # -- process management -----------------------------------------------
    def _ensure_spawned(self) -> None:
        if self._procs is not None:
            return
        if self._closed:
            raise RuntimeError("trainer already closed")
        ctx = mp.get_context("fork")
        params = self.agent.q_net.params()
        self._weights = SharedWeightBlock(
            [p.shape for p in params], dtype=params[0].dtype
        )
        self._rings = [
            TransitionRing(
                self.state_dim,
                self.ring_capacity,
                state_dtype=self.state_dtype,
            )
            for _ in range(self.num_actors)
        ]
        policy = self.agent.policy
        self._procs = []
        self._conns = []
        for i in range(self.num_actors):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=actor_worker,
                args=(
                    i,
                    self.num_actors,
                    self.env_fns[i],
                    self._rings[i],
                    self._weights,
                    child_conn,
                    # Sidecar: structure cloned pre-fork, weights
                    # overwritten by versioned fetches in the child.
                    self.agent.q_net.clone(),
                ),
                kwargs=dict(
                    head=self.agent.head,
                    schedule=policy.schedule,
                    exploration_steps=policy.exploration_steps,
                    n_actions=policy.n_actions,
                    sync_every=self.sync_every,
                    max_steps_per_episode=self.max_steps,
                    seed=self.seed,
                ),
                daemon=True,
                name=f"repro-actor-{i}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        for i, conn in enumerate(self._conns):
            self._expect(i, "ready", timeout=_ACTOR_TIMEOUT)

    def _expect(self, index: int, expected: str, *, timeout: float):
        conn = self._conns[index]
        deadline = time.monotonic() + timeout
        while not conn.poll(0.05):
            if not self._procs[index].is_alive():
                raise ActorDiedError(
                    f"actor {index} died before sending {expected!r} "
                    f"(exitcode {self._procs[index].exitcode})"
                )
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"actor {index}: no {expected!r} within {timeout}s"
                )
        tag, payload = conn.recv()
        if tag == "error":
            raise ActorDiedError(f"actor {index} failed:\n{payload}")
        if tag != expected:
            raise ActorDiedError(
                f"actor {index}: expected {expected!r}, got {tag!r}"
            )
        return payload

    def _raise_if_dead(self, index: int) -> None:
        proc = self._procs[index]
        if proc.is_alive():
            return
        detail = ""
        try:
            if self._conns[index].poll(0):
                tag, payload = self._conns[index].recv()
                if tag == "error":
                    detail = f":\n{payload}"
        except (EOFError, OSError):
            pass
        raise ActorDiedError(
            f"actor {index} died mid-segment "
            f"(exitcode {proc.exitcode}){detail}"
        )

    def close(self) -> None:
        """Tear the actor fleet down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._weights is not None:
            # Unblocks actors waiting in fetch() or a backpressured
            # push(); they exit through their shutdown path.
            self._weights.request_stop()
        if self._procs is not None:
            for conn in self._conns:
                try:
                    conn.send(("close", None))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=2.0)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    # Workers ignore SIGTERM by design; go straight to
                    # SIGKILL.
                    proc.kill()
                    proc.join(timeout=1.0)
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._procs = None
        self._conns = []

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- the segment loop -------------------------------------------------
    def run(
        self, total_steps: int, *, start_step: int = 0
    ) -> TrainingHistory:
        """Consume one segment: transitions ``start_step .. total_steps``.

        Returns :attr:`history`; episodes still open at the end of the
        segment are closed as ``"segment-boundary"`` rows (the next
        segment starts from ``env.reset()``, mirroring
        ``RunLoop.run_steps``).

        Alignment contract (validated here, arranged by the drivers):
        the segment length divides evenly across actors, and
        ``start_step`` sits on a weight-broadcast boundary so resumed
        actors re-fetch exactly the version the checkpoint weights
        correspond to.
        """
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 <= start_step < total_steps:
            raise ValueError("start_step must lie in [0, total_steps)")
        segment = total_steps - start_step
        if segment % self.num_actors != 0:
            raise ValueError(
                f"segment length {segment} must be a multiple of "
                f"num_actors={self.num_actors}"
            )
        if start_step % self.publish_every != 0:
            raise ValueError(
                f"start_step {start_step} must be a multiple of "
                f"num_actors * sync_every = {self.publish_every} "
                "(checkpoint boundaries align with weight broadcasts)"
            )
        tracer = self.tracer if self.tracer is not None else SpanTracer()
        core = self.core
        self._ensure_spawned()
        n = self.num_actors
        quota = segment // n

        # Republish the weights actors must start this segment from.
        # Idempotent: at a fresh start this is version 0 = the initial
        # weights; at a resume it is the checkpoint-boundary version.
        v0 = start_step // self.publish_every
        self._weights.publish(v0, self.agent.q_net.params())
        self._weight_version = v0

        for i, conn in enumerate(self._conns):
            conn.send(
                (
                    "segment",
                    {
                        "quota": quota,
                        "start_local_step": start_step // n,
                        "rng_state": self._actor_rng[i],
                    },
                )
            )

        pending: list[deque] = [deque() for _ in range(n)]
        consumed = start_step
        idle_seconds = 0.0
        t0 = time.perf_counter()
        seg_pushed = [0] * n
        # Ring depth as the learner meets it: transitions found per
        # non-empty drain().  (By the end of the segment every ring is
        # empty, so a gauge read then would always say 0.)
        drained = [0] * n
        drain_calls = [0] * n

        def drain(j: int) -> list:
            batch = self._rings[j].drain()
            if batch:
                drained[j] += len(batch)
                drain_calls[j] += 1
            return batch

        with tracer.span("actor-learner-segment"):
            while consumed < total_steps:
                a = consumed % n
                if not pending[a]:
                    # Prefetch: drain every ring while we are here, so
                    # slots free up even for actors we are not blocked
                    # on.
                    with tracer.span("drain"):
                        for j in range(n):
                            batch = drain(j)
                            if batch:
                                pending[j].extend(batch)
                    if not pending[a]:
                        wait_start = time.perf_counter()
                        while not pending[a]:
                            batch = drain(a)
                            if batch:
                                pending[a].extend(batch)
                                break
                            self._raise_if_dead(a)
                            time.sleep(1e-4)
                        idle_seconds += time.perf_counter() - wait_start
                rec = pending[a].popleft()
                seg_pushed[a] += 1
                with tracer.span("remember"):
                    steps = core.consume(
                        a,
                        rec.state,
                        int(rec.action),
                        float(rec.reward),
                        rec.next_state,
                        bool(rec.done),
                        max_q=rec.max_q,
                        score=rec.score,
                        crystal_rmsd=rec.crystal_rmsd,
                    )
                self._observe_transition(a, consumed)
                prev = consumed
                consumed += 1
                core.advance(prev, consumed, tracer)
                if consumed % self.publish_every == 0:
                    k = consumed // self.publish_every
                    self._weights.publish(k, self.agent.q_net.params())
                    self._weight_version = k
                # Episode boundary reconstruction (same rule the actor
                # applies locally: env-terminal or the step cap).
                if rec.done or steps >= self.max_steps:
                    core.close_episode(
                        a, consumed, "terminal" if rec.done else "time-limit"
                    )

        # Segment complete: collect the authoritative RNG streams and
        # verify the deterministic drain-to-empty invariant.
        for i in range(n):
            payload = self._expect(i, "done", timeout=_ACTOR_TIMEOUT)
            self._actor_rng[i] = payload["rng_state"]
        for i, ring in enumerate(self._rings):
            if len(ring) != 0:  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"ring {i} holds {len(ring)} transitions after a "
                    "fully consumed segment"
                )
        wall = time.perf_counter() - t0
        history = core.end_run(consumed, wall, tracer)
        ring_depth = [d / max(c, 1) for d, c in zip(drained, drain_calls)]
        self._record_metrics(
            seg_pushed, ring_depth, wall, idle_seconds, consumed
        )
        return history

    # -- telemetry ---------------------------------------------------------
    def _observe_transition(self, a: int, consumed: int) -> None:
        if self.metrics is None:
            return
        self.metrics.inc(f"{METRIC_PREFIX}/transitions-actor{a}")
        # Staleness of the weights the acting sidecar used for this
        # transition, in global transitions.
        version = (consumed // self.num_actors) // self.sync_every
        self.metrics.observe(
            f"{METRIC_PREFIX}/weight-staleness-steps",
            consumed - version * self.publish_every,
        )

    def _record_metrics(
        self,
        seg_pushed: list[int],
        ring_depth: list[float],
        wall: float,
        idle_seconds: float,
        consumed: int,
    ) -> None:
        if self.metrics is None:
            return
        m = self.metrics
        for i, ring in enumerate(self._rings):
            m.set(f"{METRIC_PREFIX}/ring-depth-actor{i}", ring_depth[i])
            m.set(
                f"{METRIC_PREFIX}/transitions-per-second-actor{i}",
                seg_pushed[i] / max(wall, 1e-9),
            )
            m.set(
                f"{METRIC_PREFIX}/ring-full-waits-actor{i}",
                ring.full_waits,
            )
        m.set(
            f"{METRIC_PREFIX}/learner-idle-fraction",
            idle_seconds / max(wall, 1e-9),
        )
        m.set(f"{METRIC_PREFIX}/weight-version", self._weight_version)
        m.set(f"{METRIC_PREFIX}/num-actors", self.num_actors)
        m.set(f"{METRIC_PREFIX}/consumed-transitions", consumed)

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """Distributed-trainer state for full-run checkpoints.

        Rings are empty at every segment boundary by construction, so
        only the actor RNG streams and the broadcast version counter
        need to persist (the agent's state and the episode history
        travel separately, as for every trainer).
        """
        from repro.utils.serialization import _to_jsonable

        return {
            "num_actors": self.num_actors,
            "sync_every": self.sync_every,
            "weight_version": self._weight_version,
            "actor_rng": _to_jsonable(list(self._actor_rng)),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (validated)."""
        from repro.nn.checkpoints import CheckpointMismatchError
        from repro.utils.serialization import _from_jsonable

        for name in ("num_actors", "sync_every"):
            if int(state.get(name, -1)) != getattr(self, name):
                raise CheckpointMismatchError(
                    f"actor-learner {name} mismatch: checkpoint "
                    f"{state.get(name)} vs trainer {getattr(self, name)}"
                )
        self._weight_version = int(state["weight_version"])
        self._actor_rng = list(_from_jsonable(state["actor_rng"]))
