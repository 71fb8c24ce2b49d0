"""The learner-side sink: the one place a transition is consumed.

Every trainer in the repo -- the sequential :class:`~repro.rl.trainer.
Trainer`, the batched :class:`~repro.rl.vector_trainer.VectorTrainer`
over the one in-process vector env, and
:class:`~repro.rl.distributed.ActorLearnerTrainer`, the one
multi-process runtime -- differs only in how it *collects* transitions.  What happens once a
transition exists is Algorithm 2's single learner step, and
:class:`LearnerCore` owns it: :meth:`~LearnerCore.consume` stores the
transition and folds it into its source's open episode,
:meth:`~LearnerCore.advance` runs the gradient steps and target syncs
the step counter owes, and :meth:`~LearnerCore.close_episode` flushes
the source's n-step window and appends the episode's row to the run's
:class:`TrainingHistory`.  A *source* is whatever emits one episode at
a time: the trainer's single env (0), a vector-env column, an actor.

The cadence is the same for every collector so runs are comparable at
equal transition counts: one gradient step per ``train_interval``
environment transitions once ``learning_start`` transitions have been
collected, and one target-network sync per ``target_update_steps``
transitions.  The update count for a step-counter move from
``prev_step`` to ``new_step`` is the number of multiples of the
interval *crossed*::

    updates = new_step // interval - prev_step // interval

For the sequential trainer (``new_step == prev_step + 1``) this is 1
exactly when ``new_step % interval == 0`` -- bit-identical to the
historical inline check -- while vector and actor/learner trainers
advance the counter by N per call and get the same update density.
Seeded pins in ``tests/test_learner_core.py`` hold both old trainers to
bit-equality with their pre-extraction behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.spans import SpanTracer
from repro.utils.ascii_plot import ascii_line_plot, sparkline


@dataclass(frozen=True)
class EpisodeStats:
    """Per-episode aggregates."""

    episode: int
    steps: int
    total_reward: float
    #: Mean over the episode's time-steps of ``max_a Q(s_t, a)`` -- the
    #: Figure 4 quantity.
    avg_max_q: float
    best_score: float
    final_score: float
    epsilon: float
    mean_loss: float
    #: True if any learning update ran during this episode.
    learning_active: bool
    termination: str
    #: Closest approach to the crystallographic pose (RMSD, angstrom);
    #: NaN when the environment does not report it.
    min_crystal_rmsd: float = float("nan")


@dataclass
class TrainingHistory:
    """Full run record with the figure-series accessors."""

    episodes: list[EpisodeStats] = field(default_factory=list)
    total_steps: int = 0
    wall_seconds: float = 0.0
    timer_report: str = ""

    def figure4_series(self) -> np.ndarray:
        """Average max predicted Q per episode, from the first episode
        where learning was active (the paper's measurement window)."""
        active = [e.avg_max_q for e in self.episodes if e.learning_active]
        return np.asarray(active)

    def best_score_series(self) -> np.ndarray:
        """Best engine score reached in each episode."""
        return np.asarray([e.best_score for e in self.episodes])

    def rmsd_series(self) -> np.ndarray:
        """Minimum crystal RMSD per episode (NaN where unavailable)."""
        return np.asarray([e.min_crystal_rmsd for e in self.episodes])

    def docking_success_rate(self, threshold: float = 2.0) -> float:
        """Fraction of episodes whose closest approach to the crystal
        pose was within ``threshold`` angstrom RMSD -- the standard
        docking success criterion ("discovering the crystallographic
        solution" in the paper's terms)."""
        rmsd = self.rmsd_series()
        valid = np.isfinite(rmsd)
        if not valid.any():
            return 0.0
        return float((rmsd[valid] <= threshold).mean())

    @property
    def best_score(self) -> float:
        """Best engine score reached across the entire run."""
        if not self.episodes:
            return float("-inf")
        return max(e.best_score for e in self.episodes)

    def summary(self) -> str:
        """Multi-line human-readable run report (with ASCII Figure 4)."""
        if not self.episodes:
            return "(no episodes)"
        q = self.figure4_series()
        lines = [
            f"episodes: {len(self.episodes)}   steps: {self.total_steps}"
            f"   wall: {self.wall_seconds:.1f}s",
            f"best score: {self.best_score:.2f}   "
            f"final epsilon: {self.episodes[-1].epsilon:.3f}",
        ]
        if q.size:
            lines.append(
                f"avg max Q: first {q[0]:.3f}  peak {q.max():.3f} "
                f"(episode {int(np.argmax(q))} of measured)  "
                f"last {q[-1]:.3f}"
            )
            lines.append("Q curve:     " + sparkline(q))
        lines.append("best scores: " + sparkline(self.best_score_series()))
        return "\n".join(lines)

    def figure4_plot(self) -> str:
        """ASCII rendering of the Figure 4 training curve."""
        return ascii_line_plot(
            self.figure4_series(),
            title="Figure 4: average max predicted Q per episode",
        )


class _OpenEpisode:
    """One source's in-progress episode aggregates."""

    __slots__ = (
        "steps", "total_reward", "max_qs", "losses", "best_score",
        "final_score", "min_rmsd",
    )

    def __init__(self) -> None:
        self.steps = 0
        self.total_reward = 0.0
        self.max_qs: list[float] = []
        self.losses: list[float] = []
        self.best_score = float("-inf")
        self.final_score = float("nan")
        self.min_rmsd = float("nan")


class LearnerCore:
    """Transition sink and cadence-correct learn/target-sync driver.

    Parameters
    ----------
    agent:
        Any agent with ``remember()``, ``flush_episode()``,
        ``can_learn()``, ``learn()``, ``sync_target()``,
        ``predict_q()`` and a ``policy``
        (:class:`repro.rl.agent.DQNAgent` in every variant).
    learning_start:
        Global transitions of pure experience collection before any
        gradient step (Algorithm 2's warm-up).
    target_update_steps:
        Table 1's C -- target sync period in global transitions.
    train_interval:
        One gradient step per this many global transitions.
    on_episode_end:
        Called with each :class:`EpisodeStats` row as it is appended.
    """

    def __init__(
        self,
        agent,
        *,
        learning_start: int = 0,
        target_update_steps: int = 1000,
        train_interval: int = 1,
        on_episode_end=None,
    ):
        self.agent = agent
        self.learning_start = int(learning_start)
        self.target_update_steps = max(1, int(target_update_steps))
        self.train_interval = max(1, int(train_interval))
        self.on_episode_end = on_episode_end
        #: The run record; rows accumulate across ``run`` calls until a
        #: caller installs another history (resume, fresh run).
        self.history = TrainingHistory()
        self._open: dict[int, _OpenEpisode] = {}

    def consume(
        self,
        source: int,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        *,
        max_q: float,
        score: float = float("nan"),
        crystal_rmsd: float = float("nan"),
    ) -> int:
        """Store one transition and fold it into ``source``'s episode.

        Returns the episode's step count so far (collectors that cap
        episode length themselves compare it against the cap).
        """
        self.agent.remember(state, action, reward, next_state, done, source)
        ep = self._open.get(source)
        if ep is None:
            ep = self._open[source] = _OpenEpisode()
        ep.steps += 1
        ep.total_reward += reward
        ep.max_qs.append(max_q)
        if np.isfinite(score):
            ep.best_score = max(ep.best_score, score)
            ep.final_score = score
        if np.isfinite(crystal_rmsd):
            ep.min_rmsd = (
                crystal_rmsd
                if np.isnan(ep.min_rmsd)
                else min(ep.min_rmsd, crystal_rmsd)
            )
        return ep.steps

    def advance(
        self,
        prev_step: int,
        new_step: int,
        tracer: SpanTracer | None = None,
    ) -> list:
        """Run the updates owed by the move ``prev_step -> new_step``.

        Returns the list of :class:`~repro.rl.agent.LearnInfo` records
        from the gradient steps taken (possibly empty); their losses
        count towards every episode open at the time.  Learns run
        before target syncs, matching both historical trainers.
        """
        infos: list = []
        if new_step >= self.learning_start and self.agent.can_learn():
            updates = (
                new_step // self.train_interval
                - prev_step // self.train_interval
            )
            for _ in range(updates):
                if tracer is not None:
                    with tracer.span("learn"):
                        infos.append(self.agent.learn())
                else:
                    infos.append(self.agent.learn())
            for info in infos:
                for ep in self._open.values():
                    ep.losses.append(info.loss)
        syncs = (
            new_step // self.target_update_steps
            - prev_step // self.target_update_steps
        )
        for _ in range(syncs):
            self.agent.sync_target()
        return infos

    def close_episode(
        self, source: int, global_step: int, termination: str
    ) -> EpisodeStats:
        """End ``source``'s open episode and record its row.

        Flushes the source's n-step window first (partial windows must
        not leak across episodes), then appends the row to
        :attr:`history` and fires ``on_episode_end``.
        """
        self.agent.flush_episode(source)
        ep = self._open.pop(source)
        stats = EpisodeStats(
            episode=len(self.history.episodes),
            steps=ep.steps,
            total_reward=ep.total_reward,
            avg_max_q=float(np.mean(ep.max_qs)) if ep.max_qs else 0.0,
            best_score=ep.best_score,
            final_score=ep.final_score,
            epsilon=self.epsilon(global_step),
            mean_loss=(
                float(np.mean(ep.losses)) if ep.losses else float("nan")
            ),
            learning_active=bool(ep.losses),
            termination=termination,
            min_crystal_rmsd=ep.min_rmsd,
        )
        self.history.episodes.append(stats)
        self.history.total_steps = global_step
        if self.on_episode_end is not None:
            self.on_episode_end(stats)
        return stats

    def end_run(
        self, global_step: int, seconds: float, tracer: SpanTracer
    ) -> TrainingHistory:
        """Close a ``run`` call: partial episodes end as
        ``"segment-boundary"`` (the next call starts from a reset), the
        counters and the tracer's report land in :attr:`history`."""
        for source in sorted(self._open):
            self.close_episode(source, global_step, "segment-boundary")
        self.history.total_steps = global_step
        self.history.wall_seconds += seconds
        self.history.timer_report = tracer.report()
        return self.history

    def epsilon(self, global_step: int) -> float:
        """The exploration rate at ``global_step`` (policy schedule)."""
        return float(self.agent.policy.epsilon(global_step))

    def select_actions(
        self, states: np.ndarray, global_step: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched epsilon-greedy: one forward for all N states.

        Returns ``(actions, q_values)`` like ``agent.act``.  Draw order
        (one ``uniform(size=n)`` then one ``integers(size=n)`` from the
        policy RNG) is pinned -- the vector trainer's bit-equality
        tests depend on it.
        """
        # predict_q (not q_net.predict): expands compact dynamic tails
        # back to full states when the agent runs in compact mode.
        q = self.agent.predict_q(states)  # (n, actions)
        greedy = np.argmax(q, axis=1)
        policy = self.agent.policy
        eps = policy.epsilon(global_step)
        n = states.shape[0]
        random_mask = policy.rng.uniform(size=n) < eps
        random_actions = policy.rng.integers(policy.n_actions, size=n)
        return np.where(random_mask, random_actions, greedy), q
