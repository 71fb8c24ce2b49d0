"""Multi-complex curriculum: the training-side fix for generalization.

The zero-shot experiment (:mod:`repro.experiments.generalization`) shows
single-complex training transfers nothing.  The obvious remedy the
paper's "scalable to any other scenario" goal implies is training on
*many* complexes at once.  This driver trains one agent over N
same-size-class complexes stepped in lockstep
(:func:`repro.env.factory.make_vector_env` +
:class:`repro.rl.vector_trainer.VectorTrainer`) and evaluates on a
held-out complex, against a single-complex baseline trained with the
same total transition budget.  ``cfg.trainer == "actor-learner"`` runs
the curriculum phase on the multi-process actor/learner runtime instead,
one actor process per complex (see docs/PARALLELISM.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.chem.builders import build_complex
from repro.config import DQNDockingConfig
from repro.env.factory import make_env, make_vector_env
from repro.experiments.figure4 import (
    aligned_steps,
    build_agent,
    train_actor_learner,
)
from repro.rl.evaluation import EvaluationResult, evaluate_policy
from repro.rl.vector_trainer import VectorTrainer
from repro.utils.tables import render_table


@dataclass
class CurriculumResult:
    """Held-out evaluation of curriculum vs single-complex training."""

    n_train_complexes: int
    total_steps: int
    curriculum_eval: EvaluationResult
    single_eval: EvaluationResult
    untrained_eval: EvaluationResult

    def summary(self) -> str:
        """Comparison table on the held-out complex."""
        rows = [
            (
                f"curriculum ({self.n_train_complexes} complexes)",
                f"{self.curriculum_eval.mean_best_score:.2f}",
                f"{self.curriculum_eval.mean_min_rmsd:.2f}",
            ),
            (
                "single complex",
                f"{self.single_eval.mean_best_score:.2f}",
                f"{self.single_eval.mean_min_rmsd:.2f}",
            ),
            (
                "untrained",
                f"{self.untrained_eval.mean_best_score:.2f}",
                f"{self.untrained_eval.mean_min_rmsd:.2f}",
            ),
        ]
        return render_table(
            ("training regime", "held-out best score", "min RMSD"),
            rows,
            title=(
                f"Curriculum transfer ({self.total_steps} transitions "
                f"per regime)"
            ),
            align=("l", "r", "r"),
        )


def _complex_cfg(cfg: DQNDockingConfig, seed: int):
    return dataclasses.replace(cfg.complex, seed=seed)


def run_curriculum_experiment(
    cfg: DQNDockingConfig,
    *,
    n_train_complexes: int = 4,
    total_steps: int | None = None,
    eval_episodes: int = 3,
    telemetry=None,
    runtime=None,
) -> CurriculumResult:
    """Train curriculum vs single-complex agents; evaluate held-out.

    The held-out complex's seed is disjoint from every training seed.
    Both regimes see exactly ``total_steps`` environment transitions
    (default: the config's episodes x max-steps budget; with the
    actor/learner runtime it rounds up to the broadcast cadence).
    The curriculum phase steps the complexes in lockstep in this
    process -- unless ``cfg.trainer == "actor-learner"``, which runs it
    on the multi-process actor/learner runtime with one actor per
    training complex (the single-complex baseline stays on the
    in-process vector env either way); a
    :class:`repro.telemetry.TelemetryRun` passed as ``telemetry``
    receives the curriculum phase's telemetry.

    With a :class:`~repro.runtime.loop.RuntimeContext`, both training
    regimes run in checkpointed step segments (phases ``curriculum``
    and ``single``) and the held-out evaluations are memoized, so an
    interrupted study resumes where it stopped.
    """
    from repro.runtime.loop import RunLoop, memoized

    if n_train_complexes < 2:
        raise ValueError("curriculum needs at least 2 complexes")
    steps = total_steps or cfg.episodes * cfg.max_steps_per_episode
    actor_learner = cfg.trainer == "actor-learner"
    if actor_learner:
        # One actor process per training complex; the transition budget
        # rounds up to the weight-broadcast cadence so checkpoint
        # boundaries stay aligned (both regimes use the rounded budget
        # to keep the comparison fair).
        steps = aligned_steps(
            steps, n_train_complexes * cfg.actor_sync_every
        )
    tracer = telemetry.tracer if telemetry is not None else None

    train_seeds = [
        cfg.complex.seed + 1000 * k for k in range(n_train_complexes)
    ]
    holdout_seed = cfg.complex.seed + 999999

    builts = [build_complex(_complex_cfg(cfg, s)) for s in train_seeds]
    if actor_learner:
        curriculum_agent, _history = train_actor_learner(
            cfg,
            builts,
            steps,
            phase="curriculum",
            checkpoint_steps=(
                runtime.checkpoint_every if runtime is not None else 0
            ),
            telemetry=telemetry,
            runtime=runtime,
        )
    else:
        # Curriculum agent: N complexes in lockstep.
        venv = make_vector_env(
            cfg,
            builts=builts,
            n_envs=n_train_complexes,
            tracer=tracer,
        )
        try:
            curriculum_agent = build_agent(
                cfg, venv.state_dim, venv.n_actions
            )
            vtrainer = VectorTrainer(
                venv,
                curriculum_agent,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
                tracer=tracer,
            )
            RunLoop(runtime, phase="curriculum").run_steps(vtrainer, steps)
        finally:
            venv.close()

    # Single-complex baseline at the same budget (serial: one env).
    single_built = builts[0]
    single_venv = make_vector_env(cfg, builts=[single_built])
    try:
        single_agent = build_agent(
            cfg, single_venv.state_dim, single_venv.n_actions
        )
        single_vtrainer = VectorTrainer(
            single_venv,
            single_agent,
            learning_start=cfg.learning_start,
            target_update_steps=cfg.target_update_steps,
            train_interval=cfg.train_interval,
        )
        RunLoop(runtime, phase="single").run_steps(single_vtrainer, steps)
    finally:
        single_venv.close()

    # Held-out evaluation.
    holdout_built = build_complex(_complex_cfg(cfg, holdout_seed))
    env = make_env(cfg, holdout_built)
    decode_eval = lambda d: EvaluationResult(**d)  # noqa: E731
    try:
        curriculum_eval = memoized(
            runtime,
            "curriculum/eval-curriculum",
            lambda: evaluate_policy(
                env, curriculum_agent, episodes=eval_episodes,
                max_steps=cfg.max_steps_per_episode, rng=cfg.seed,
            ),
            decode=decode_eval,
        )
        single_eval = memoized(
            runtime,
            "curriculum/eval-single",
            lambda: evaluate_policy(
                env, single_agent, episodes=eval_episodes,
                max_steps=cfg.max_steps_per_episode, rng=cfg.seed,
            ),
            decode=decode_eval,
        )
        untrained_eval = memoized(
            runtime,
            "curriculum/eval-untrained",
            lambda: evaluate_policy(
                env,
                build_agent(cfg, env.state_dim, env.n_actions),
                episodes=eval_episodes,
                max_steps=cfg.max_steps_per_episode,
                rng=cfg.seed,
            ),
            decode=decode_eval,
        )
    finally:
        env.close()
    return CurriculumResult(
        n_train_complexes=n_train_complexes,
        total_steps=steps,
        curriculum_eval=curriculum_eval,
        single_eval=single_eval,
        untrained_eval=untrained_eval,
    )
