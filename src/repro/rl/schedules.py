"""Exploration schedules (Table 1's epsilon block)."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator


class ConstantSchedule:
    """A schedule that always returns the same value."""

    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, step: int) -> float:
        return self.value


class LinearSchedule:
    """Linear annealing: ``start - decay * step``, clamped at ``final``.

    Matches Table 1's parameterization (epsilon decay is a *rate per
    time-step*, 4.5e-5, rather than a horizon).
    """

    def __init__(self, start: float, final: float, decay_per_step: float):
        if decay_per_step < 0:
            raise ValueError("decay_per_step must be non-negative")
        self.start = float(start)
        self.final = float(final)
        self.decay = float(decay_per_step)

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be non-negative")
        value = self.start - self.decay * step
        lo, hi = sorted((self.start, self.final))
        return float(np.clip(value, lo, hi))


class EpsilonGreedy:
    """Epsilon-greedy action selection over a Q-value callable.

    Before ``exploration_steps`` every action is random ("Initial
    exploration steps" in Table 1); afterwards epsilon follows the given
    schedule.
    """

    def __init__(
        self,
        schedule,
        n_actions: int,
        *,
        exploration_steps: int = 0,
        rng: SeedLike = None,
    ):
        if n_actions < 1:
            raise ValueError("n_actions must be >= 1")
        self.schedule = schedule
        self.n_actions = int(n_actions)
        self.exploration_steps = int(exploration_steps)
        self.rng = as_generator(rng)

    def epsilon(self, step: int) -> float:
        """Effective epsilon at ``step`` (1.0 during forced exploration)."""
        if step < self.exploration_steps:
            return 1.0
        return self.schedule(step - self.exploration_steps)

    def select(self, q_values: np.ndarray, step: int) -> int:
        """Pick an action from ``q_values`` under the schedule."""
        if self.rng.uniform() < self.epsilon(step):
            return int(self.rng.integers(self.n_actions))
        q = np.asarray(q_values, dtype=float)
        if q.shape != (self.n_actions,):
            raise ValueError(
                f"expected {self.n_actions} Q-values, got shape {q.shape}"
            )
        return int(np.argmax(q))
