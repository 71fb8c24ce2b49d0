"""Figure 4: the training curve of average max predicted Q per episode.

The paper trains 1,800 episodes on 2BSM and reports that the average
maximum predicted Q rises to ~35,000 around episode 500, then declines to
~27,000 by episode 1,800 -- non-convergence.  The absolute magnitudes are
artefacts of unnormalized raw-coordinate inputs; the reproducible
content is the *shape*: rise from the start of learning to an interior
peak, then decline.  :func:`curve_shape_metrics` quantifies exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.builders import build_complex
from repro.config import DQNDockingConfig
from repro.env.factory import make_env
from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.trainer import Trainer, TrainingHistory


@dataclass(frozen=True)
class CurveShape:
    """Shape descriptors of a training curve."""

    first: float
    peak: float
    last: float
    peak_index: int
    n_points: int

    @property
    def rose(self) -> bool:
        """Did the curve rise meaningfully above its start?"""
        span = abs(self.peak - self.first)
        return self.peak > self.first and span > 1e-9

    @property
    def declined_after_peak(self) -> bool:
        """Did it come back down after the peak (non-convergence)?"""
        return self.last < self.peak

    @property
    def peak_interior(self) -> bool:
        """Is the peak strictly inside the run (not at either end)?"""
        return 0 < self.peak_index < self.n_points - 1

    @property
    def paper_shape(self) -> bool:
        """The Figure 4 signature: rise -> interior peak -> decline."""
        return self.rose and self.declined_after_peak and self.peak_interior


def curve_shape_metrics(series: np.ndarray, smooth: int = 5) -> CurveShape:
    """Shape metrics of a (possibly noisy) curve after box smoothing."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        return CurveShape(0.0, 0.0, 0.0, 0, 0)
    if smooth > 1 and arr.size >= smooth:
        kernel = np.ones(smooth) / smooth
        arr = np.convolve(arr, kernel, mode="valid")
    peak_idx = int(np.argmax(arr))
    return CurveShape(
        first=float(arr[0]),
        peak=float(arr[peak_idx]),
        last=float(arr[-1]),
        peak_index=peak_idx,
        n_points=int(arr.size),
    )


@dataclass
class Figure4Result:
    """Everything the Figure 4 reproduction produces."""

    config: DQNDockingConfig
    history: TrainingHistory
    #: The trained agent (for deployment rollouts); excluded from repr.
    agent: object = None

    @property
    def series(self) -> np.ndarray:
        """Average max predicted Q per (learning-active) episode."""
        return self.history.figure4_series()

    def shape(self, smooth: int = 5) -> CurveShape:
        """Shape metrics of the measured curve."""
        return curve_shape_metrics(self.series, smooth=smooth)

    def summary(self) -> str:
        """Run report with the ASCII curve."""
        s = self.shape()
        lines = [
            self.history.summary(),
            "",
            f"curve shape: first={s.first:.3f} peak={s.peak:.3f}"
            f"@{s.peak_index} last={s.last:.3f} "
            f"(rise={s.rose} decline={s.declined_after_peak})",
            "",
            self.history.figure4_plot(),
        ]
        return "\n".join(lines)


def build_agent(
    cfg: DQNDockingConfig,
    state_dim: int,
    n_actions: int,
    *,
    static_state=None,
):
    """Agent factory honouring the config's ``variant``.

    ``static_state`` (the constant receptor prefix from a compact-mode
    environment) switches the agent to compact replay; ``state_dim``
    must then be the paper-shaped *full* dimension, not the emitted
    tail length.
    """
    return DQNAgent(
        AgentConfig.from_run_config(cfg, state_dim, n_actions),
        static_state=static_state,
    )


def build_agent_for_env(cfg: DQNDockingConfig, env):
    """Build the agent matched to ``env``'s observation codec.

    The env's :class:`~repro.env.observation.ObservationSpec` decides
    the Q-network input width: compact envs emit float32 dynamic tails,
    so the agent is built on the *full* paper-shaped dimension with the
    env's constant receptor prefix; descriptor envs consume the emitted
    vector directly; raw (and spec-less custom) envs get the classic
    pairing.  Works through :class:`repro.env.wrappers.Wrapper` chains
    (attribute delegation).
    """
    spec = getattr(env, "observation_spec", None)
    if spec is None:
        return build_agent(cfg, env.state_dim, env.n_actions)
    if spec.mode == "compact":
        return build_agent(
            cfg,
            spec.full_dim,
            env.n_actions,
            static_state=env.static_state(),
        )
    return build_agent(cfg, spec.q_input_dim, env.n_actions)


def run_figure4_experiment(
    cfg: DQNDockingConfig,
    *,
    on_episode_end=None,
    telemetry=None,
    runtime=None,
    phase: str = "figure4",
) -> Figure4Result:
    """Train DQN-Docking per Algorithm 2 and collect the Figure 4 series.

    At :data:`repro.config.PAPER_CONFIG` scale this is the full Section 4
    experiment (hours); tests and benches use
    :func:`repro.config.ci_scale_config` presets.

    ``telemetry`` is an optional
    :class:`~repro.telemetry.run.TelemetryRun`: its tracer is threaded
    through trainer, agent, environment, and engine (so spans nest as
    train/episode/env-step/engine-step/score), and its callback streams
    per-step/per-episode events.  The caller owns finalization.

    ``runtime`` is an optional
    :class:`~repro.runtime.loop.RuntimeContext`: training then runs
    through a checkpointing :class:`~repro.runtime.loop.RunLoop` under
    the phase name ``phase`` -- snapshots on cadence and shutdown, and
    on re-entry the run resumes (or short-circuits when the phase
    already completed).  ``None`` keeps the classic direct path.
    """
    from repro.runtime.loop import RunLoop

    if cfg.trainer == "actor-learner":
        # N actors over one shared complex; the episode budget becomes a
        # transition budget and the episode-denominated checkpoint
        # cadence a step count.
        every = runtime.checkpoint_every if runtime is not None else 0
        agent, history = train_actor_learner(
            cfg,
            [build_complex(cfg.complex)] * cfg.num_actors,
            cfg.episodes * cfg.max_steps_per_episode,
            phase=phase,
            checkpoint_steps=every * cfg.max_steps_per_episode,
            on_episode_end=on_episode_end,
            telemetry=telemetry,
            runtime=runtime,
        )
        return Figure4Result(config=cfg, history=history, agent=agent)
    env = make_env(cfg)
    callbacks = []
    tracer = None
    if telemetry is not None:
        tracer = telemetry.tracer
        callbacks.append(telemetry.callback())
        env.tracer = tracer
        env.engine.tracer = tracer
        env.engine.metrics = telemetry.registry
    try:
        # Compact mode: the env emits float32 dynamic tails; the agent
        # gets the full paper-shaped dimension plus the constant
        # receptor prefix and reconstructs states on demand.
        agent = build_agent_for_env(cfg, env)
        agent.tracer = tracer
        trainer = Trainer(
            env,
            agent,
            episodes=cfg.episodes,
            max_steps_per_episode=cfg.max_steps_per_episode,
            learning_start=cfg.learning_start,
            target_update_steps=cfg.target_update_steps,
            train_interval=cfg.train_interval,
            on_episode_end=on_episode_end,
            callbacks=callbacks,
            tracer=tracer,
        )
        history = RunLoop(runtime, phase=phase).run_episodes(trainer)
    finally:
        env.close()
    return Figure4Result(config=cfg, history=history, agent=agent)


def aligned_steps(steps: int, align: int) -> int:
    """``steps`` rounded up to a positive multiple of ``align``."""
    return max(align, -(-steps // align) * align)


def train_actor_learner(
    cfg: DQNDockingConfig,
    builts,
    total_steps: int,
    *,
    phase: str,
    checkpoint_steps: int = 0,
    on_episode_end=None,
    telemetry=None,
    runtime=None,
):
    """Train one agent on the actor/learner runtime.

    One actor process per entry of ``builts``, each owning an env built
    by :func:`make_env` over its complex (inherited through fork, so
    nothing re-builds in the workers); the learner consumes their
    transitions round-robin and reconstructs the per-episode Figure 4
    series from the ring payloads (see :mod:`repro.rl.distributed`).
    Engine spans stay inside the actor processes and are not merged
    into the parent's telemetry; the per-actor throughput metrics cover
    that ground instead.

    ``total_steps`` and the checkpoint cadence ``checkpoint_steps``
    (0: one segment) are rounded up to multiples of ``len(builts) *
    cfg.actor_sync_every`` so every checkpoint boundary lands exactly
    on a weight-broadcast boundary (the alignment
    :meth:`~repro.rl.distributed.ActorLearnerTrainer.run` enforces).
    Returns ``(agent, history)``.
    """
    from repro.rl.distributed import ActorLearnerTrainer
    from repro.runtime.loop import RunLoop

    tracer = metrics = None
    if telemetry is not None:
        tracer, metrics = telemetry.tracer, telemetry.registry
    # Probe once in the parent for the codec geometry the agent and the
    # transition rings must match; actors rebuild their own envs.
    probe = make_env(cfg, builts[0])
    try:
        agent = build_agent_for_env(cfg, probe)
        agent.tracer = tracer
        trainer = ActorLearnerTrainer(
            [(lambda b=b: make_env(cfg, b)) for b in builts],
            agent,
            state_dim=int(probe.state_dim),
            state_dtype=probe.state_dtype,
            sync_every=cfg.actor_sync_every,
            ring_capacity=cfg.actor_ring_capacity,
            max_steps_per_episode=cfg.max_steps_per_episode,
            learning_start=cfg.learning_start,
            target_update_steps=cfg.target_update_steps,
            train_interval=cfg.train_interval,
            observation_spec=probe.observation_spec,
            tracer=tracer,
            metrics=metrics,
            seed=cfg.seed,
            on_episode_end=on_episode_end,
        )
    finally:
        probe.close()
    align = len(builts) * cfg.actor_sync_every
    try:
        history = RunLoop(runtime, phase=phase).run_steps(
            trainer,
            aligned_steps(total_steps, align),
            segment_steps=(
                aligned_steps(checkpoint_steps, align)
                if checkpoint_steps > 0
                else None
            ),
        )
    finally:
        trainer.close()
    return agent, history
