"""Batched-acting trainer over a :class:`~repro.env.vectorized.SyncVectorEnv`.

Algorithm 2 with the act step vectorized: one Q-network forward serves
all N environments per step.  Learning stays identical (one gradient
step per ``train_interval`` *environment* transitions, same replay
semantics), so results are comparable to the sequential trainer at equal
transition counts while the wall-clock amortizes the network cost.

The N environments step serially in this process (build the vector
env with :func:`repro.env.factory.make_vector_env`); the multi-process
runtime, with one actor process per environment, is
:class:`repro.rl.distributed.ActorLearnerTrainer`.
"""

from __future__ import annotations

import time

from repro.env.vectorized import SyncVectorEnv
from repro.rl.learner import LearnerCore, TrainingHistory
from repro.telemetry.spans import SpanTracer


class VectorTrainer:
    """Collect transitions from N envs with batched action selection."""

    def __init__(
        self,
        venv: SyncVectorEnv,
        agent,
        *,
        learning_start: int = 0,
        target_update_steps: int = 1000,
        train_interval: int = 1,
        tracer: SpanTracer | None = None,
    ):
        self.venv = venv
        self.agent = agent
        # Replay, per-env episode rows and the update cadence are shared
        # with every other trainer through the LearnerCore; env column
        # ``i`` is transition source ``i``.
        self.core = LearnerCore(
            agent,
            learning_start=learning_start,
            target_update_steps=target_update_steps,
            train_interval=train_interval,
        )
        self.tracer = tracer

    def run(
        self, total_steps: int, *, start_step: int = 0
    ) -> TrainingHistory:
        """Collect transitions until ``total_steps`` (summed across envs).

        ``start_step`` continues an interrupted run: the epsilon
        schedule, learn cadence, and target-sync cadence all key off the
        global step, so a resumed segment picks up exactly where the
        checkpointed one left off.  The venv is (re)reset at the start
        of every call, so episodes still open when a call returns are
        closed as ``"segment-boundary"`` rows -- checkpoint boundaries
        are therefore also episode boundaries for all N environments
        (see docs/CHECKPOINTS.md).  Returns the sink's history, which
        accumulates across calls.
        """
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 <= start_step < total_steps:
            raise ValueError("start_step must lie in [0, total_steps)")
        tracer = self.tracer if self.tracer is not None else SpanTracer()
        core = self.core
        t0 = time.perf_counter()
        states = self.venv.reset()
        global_step = start_step
        n = self.venv.n_envs
        while global_step < total_steps:
            with tracer.span("act"):
                actions, q = core.select_actions(states, global_step)
            max_qs = q.max(axis=1)
            with tracer.span("env-step"):
                next_states, rewards, dones, infos = self.venv.step(actions)
            with tracer.span("remember"):
                for i in range(n):
                    info = infos[i]
                    core.consume(
                        i,
                        states[i],
                        int(actions[i]),
                        float(rewards[i]),
                        info["terminal_state"] if dones[i] else next_states[i],
                        bool(dones[i]),
                        max_q=float(max_qs[i]),
                        score=info.get("score", float("nan")),
                        crystal_rmsd=info.get("crystal_rmsd", float("nan")),
                    )
            states = next_states
            prev_step = global_step
            global_step += n
            # One learn per train_interval transitions, matching the
            # sequential trainer's update density.
            core.advance(prev_step, global_step, tracer)
            for i in range(n):
                if dones[i]:
                    core.close_episode(
                        i,
                        global_step,
                        infos[i].get("termination", "terminal"),
                    )
        return core.end_run(global_step, time.perf_counter() - t0, tracer)
