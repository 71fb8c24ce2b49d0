"""DQN vs Monte Carlo vs metaheuristics under an equal evaluation budget.

The paper's stated goal: discover "the crystallographic solution ... or
at least positions with similar scores as those obtained with
state-of-the-art Monte Carlo optimization methods".  This experiment
makes that comparison concrete: every method gets the same number of
score evaluations; we report the best score each finds, with the crystal
pose's score as the reference optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.builders import build_complex
from repro.config import DQNDockingConfig
from repro.env.factory import make_env
from repro.experiments.figure4 import build_agent_for_env
from repro.metadock.engine import MetadockEngine
from repro.metadock.metaheuristic import MetaheuristicSchema
from repro.metadock.montecarlo import MonteCarloConfig, MonteCarloOptimizer
from repro.metadock.strategies import STRATEGY_PRESETS
from repro.rl.evaluation import evaluate_policy
from repro.rl.trainer import Trainer
from repro.scoring.composite import interaction_score
from repro.utils.tables import render_table


@dataclass(frozen=True)
class MethodResult:
    """One optimizer's outcome under the shared budget."""

    method: str
    best_score: float
    evaluations: int


@dataclass
class BaselineComparison:
    """All methods' results plus the crystal reference."""

    crystal_score: float
    results: list[MethodResult]

    def best_method(self) -> MethodResult:
        """The winner by best score."""
        return max(self.results, key=lambda r: r.best_score)

    def summary(self) -> str:
        """Ranked comparison table."""
        rows = [
            (
                r.method,
                f"{r.best_score:.2f}",
                f"{100.0 * r.best_score / self.crystal_score:.1f}%"
                if self.crystal_score
                else "n/a",
                r.evaluations,
            )
            for r in sorted(
                self.results, key=lambda r: r.best_score, reverse=True
            )
        ]
        return render_table(
            ["method", "best score", "% of crystal", "evaluations"],
            rows,
            title=(
                f"Baseline comparison (crystal score "
                f"{self.crystal_score:.2f})"
            ),
            align=["l", "r", "r", "r"],
        )


def run_baseline_comparison(
    cfg: DQNDockingConfig,
    *,
    budget: int = 1500,
    strategies: tuple[str, ...] = ("montecarlo", "local", "scatter", "ga"),
    include_dqn: bool = True,
    dqn_rollout_steps: int = 200,
    runtime=None,
) -> BaselineComparison:
    """Run every optimizer with ``budget`` score evaluations.

    The DQN entry spends its budget on *training* environment steps
    (each step = one evaluation), then reports the best score over a
    greedy deployment rollout plus everything seen while training --
    matching how the paper frames DQN as an anytime learner.

    With a :class:`~repro.runtime.loop.RuntimeContext` attached, each
    finished optimizer's result is memoized in ``results.json`` and DQN
    training checkpoints under the ``baselines-dqn`` phase, so an
    interrupted comparison resumes where it stopped instead of
    re-running every method.
    """
    from repro.runtime.loop import RunLoop, memoized

    built = build_complex(cfg.complex)
    results: list[MethodResult] = []
    decode = lambda d: MethodResult(**d)  # noqa: E731 - local adapter

    for name in strategies:
        if runtime is not None:
            runtime.check_interrupt(f"baselines-{name}")

        def run_strategy(name=name) -> MethodResult:
            engine = MetadockEngine(
                built,
                shift_length=cfg.shift_length,
                rotation_angle_deg=cfg.rotation_angle_deg,
            )
            if name == "montecarlo":
                res = MonteCarloOptimizer(
                    engine,
                    MonteCarloConfig(steps=budget, restarts=3),
                    seed=cfg.seed,
                ).run()
                return MethodResult(
                    "montecarlo", res.best_score, res.evaluations
                )
            params = STRATEGY_PRESETS[name](budget)
            res = MetaheuristicSchema(engine, params, seed=cfg.seed).run()
            return MethodResult(
                f"metaheuristic-{name}", res.best_score, res.evaluations
            )

        results.append(
            memoized(
                runtime, f"baselines/{name}", run_strategy, decode=decode
            )
        )

    if include_dqn:
        env = make_env(cfg, built)
        try:
            agent = build_agent_for_env(cfg, env)
            max_steps = min(cfg.max_steps_per_episode, max(1, budget // 4))
            episodes = max(1, budget // max_steps)
            trainer = Trainer(
                env,
                agent,
                episodes=episodes,
                max_steps_per_episode=max_steps,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
            )
            history = RunLoop(runtime, phase="baselines-dqn").run_episodes(
                trainer
            )

            def run_rollout() -> MethodResult:
                rollout = evaluate_policy(
                    env,
                    agent,
                    episodes=1,
                    max_steps=dqn_rollout_steps,
                    epsilon=0.0,
                )
                best = max(history.best_score, rollout.max_best_score)
                return MethodResult(
                    "dqn-docking",
                    best,
                    history.total_steps + dqn_rollout_steps,
                )

            results.append(
                memoized(
                    runtime, "baselines/dqn", run_rollout, decode=decode
                )
            )
        finally:
            env.close()

    crystal = interaction_score(built.receptor, built.ligand_crystal)
    return BaselineComparison(crystal_score=crystal, results=results)
