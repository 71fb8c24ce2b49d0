"""The training loop of Algorithm 2 with Figure 4 instrumentation.

The trainer owns the episode loop; the agent owns learning; the
environment owns docking physics and game rules.  Metrics follow the
paper's protocol: "track the average maximum predicted Q for each
time-step" once learning has started, aggregated per episode -- exactly
the series plotted in Figure 4.
"""

from __future__ import annotations

import time
from typing import Protocol, Sequence

import numpy as np

# The result types live with the sink that fills them and stay
# importable from here.
from repro.rl.learner import (  # noqa: F401
    EpisodeStats,
    LearnerCore,
    TrainingHistory,
)
from repro.telemetry.callbacks import CallbackList, StepInfo, TrainerCallback
from repro.telemetry.spans import SpanTracer


class SupportsEnv(Protocol):
    """Environment interface the trainer drives (gym-flavoured)."""

    def reset(self) -> np.ndarray: ...

    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict]: ...


class Trainer:
    """Drives Algorithm 2 against any agent/environment pair.

    Parameters
    ----------
    env / agent:
        See :class:`SupportsEnv` and :class:`repro.rl.agent.DQNAgent`.
    episodes / max_steps_per_episode:
        Table 1's M and T.
    learning_start:
        Global steps of pure experience collection before updates.
    target_update_steps:
        Table 1's C -- target sync period in *global environment steps*.
    train_interval:
        Gradient steps every this many environment steps.
    callbacks:
        :class:`~repro.telemetry.callbacks.TrainerCallback` hooks; they
        receive episode boundaries and per-step
        :class:`~repro.telemetry.callbacks.StepInfo` records.  With no
        callbacks registered the per-step hook machinery is skipped
        entirely.
    tracer:
        Shared :class:`~repro.telemetry.spans.SpanTracer`; pass the one
        owned by a :class:`~repro.telemetry.run.TelemetryRun` so
        trainer phases nest with agent/env/engine spans.  A private
        tracer is created when omitted (it feeds ``timer_report``).
    """

    def __init__(
        self,
        env: SupportsEnv,
        agent,
        *,
        episodes: int,
        max_steps_per_episode: int,
        learning_start: int = 0,
        target_update_steps: int = 1000,
        train_interval: int = 1,
        on_episode_end=None,
        callbacks: Sequence[TrainerCallback] | None = None,
        tracer: SpanTracer | None = None,
    ):
        if episodes < 1 or max_steps_per_episode < 1:
            raise ValueError("episodes and max_steps must be >= 1")
        self.env = env
        self.agent = agent
        self.episodes = int(episodes)
        self.max_steps = int(max_steps_per_episode)
        # Everything after the transition exists (replay, episode rows,
        # learn / target-sync cadence) lives in the shared LearnerCore
        # so every trainer applies Algorithm 2's learner step
        # identically.
        self.core = LearnerCore(
            agent,
            learning_start=learning_start,
            target_update_steps=target_update_steps,
            train_interval=train_interval,
            on_episode_end=on_episode_end,
        )
        self.callbacks = CallbackList(callbacks)
        self.tracer = tracer

    def run(
        self,
        *,
        start_episode: int = 0,
        global_step: int = 0,
        history: TrainingHistory | None = None,
        stop=None,
    ) -> TrainingHistory:
        """Execute the training run (or the remainder of one).

        ``start_episode`` / ``global_step`` / ``history`` continue an
        interrupted run from a checkpoint: the episode loop resumes at
        ``start_episode`` with the epsilon/target-sync counters at
        ``global_step`` and new episodes appended to ``history``.  With
        the defaults this is a fresh run.  ``stop``, when given, is
        called after every completed episode as ``stop(ep, global_step)``
        and ends the run early when it returns True -- the hook
        :class:`repro.runtime.loop.RunLoop` uses for checkpoint cadence
        and graceful shutdown.  ``wall_seconds`` accumulates across
        resumed segments; ``timer_report`` covers only the last one.
        """
        tracer = self.tracer if self.tracer is not None else SpanTracer()
        cb = self.callbacks
        notify = len(cb) > 0
        core = self.core
        core.history = history if history is not None else TrainingHistory()

        t0 = time.perf_counter()
        if notify:
            cb.on_train_start(self)
        with tracer.span("train"):
            for ep in range(start_episode, self.episodes):
                if notify:
                    cb.on_episode_start(ep)
                state = self.env.reset()
                termination = "time-limit"
                for t in range(self.max_steps):
                    with tracer.span("act"):
                        action, q = self.agent.act(state, global_step)
                    max_q = float(np.max(q))
                    with tracer.span("env-step"):
                        next_state, reward, done, info = self.env.step(action)
                    score = info.get("score", float("nan"))
                    core.consume(
                        0, state, action, reward, next_state, done,
                        max_q=max_q,
                        score=score,
                        crystal_rmsd=info.get("crystal_rmsd", float("nan")),
                    )
                    state = next_state
                    global_step += 1
                    learn_infos = core.advance(
                        global_step - 1, global_step, tracer
                    )
                    if done:
                        termination = info.get("termination", "terminal")
                    if notify:
                        cb.on_step(
                            StepInfo(
                                episode=ep,
                                step=t,
                                global_step=global_step,
                                action=int(action),
                                reward=float(reward),
                                score=float(score),
                                max_q=max_q,
                                epsilon=core.epsilon(global_step),
                                loss=(
                                    learn_infos[-1].loss
                                    if learn_infos
                                    else float("nan")
                                ),
                                done=done,
                            )
                        )
                    if done:
                        break
                stats = core.close_episode(0, global_step, termination)
                if notify:
                    cb.on_episode_end(stats)
                if stop is not None and stop(ep, global_step):
                    break
        history = core.end_run(global_step, time.perf_counter() - t0, tracer)
        if notify:
            cb.on_train_end(history)
        return history

