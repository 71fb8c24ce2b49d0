"""Trainer callback protocol: how training loops report without coupling.

The trainer calls these hooks at well-defined points; what happens to
the data (registry, sinks, progress bars) is entirely the callback's
business.  The trainer never imports a sink and pays nothing when no
callback is registered.

Hook order per run::

    on_train_start
      (per episode) on_episode_start -> on_step* -> on_episode_end
    on_train_end
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional


@dataclass(frozen=True)
class StepInfo:
    """Everything one environment step produced, for callbacks."""

    episode: int
    #: Step index within the episode (0-based).
    step: int
    #: Global environment-step counter across the run (1-based, i.e.
    #: the value *after* this step).
    global_step: int
    action: int
    reward: float
    #: Engine score after the step (NaN when unavailable).
    score: float
    #: ``max_a Q(s_t, a)`` of the acting forward pass (Figure 4's raw).
    max_q: float
    epsilon: float
    #: Loss of the gradient step taken at this step (NaN if none ran).
    loss: float
    done: bool


class TrainerCallback:
    """No-op base class; override the hooks you care about."""

    def on_train_start(self, trainer: Any = None) -> None:
        """Called once before the first episode."""

    def on_episode_start(self, episode: int) -> None:
        """Called before each episode's reset."""

    def on_step(self, info: StepInfo) -> None:
        """Called after each environment step (and any learn step)."""

    def on_episode_end(self, stats: Any) -> None:
        """Called with the episode's ``EpisodeStats``."""

    def on_train_end(self, history: Any) -> None:
        """Called once with the final ``TrainingHistory``."""


class CallbackList(TrainerCallback):
    """Dispatches every hook to an ordered list of callbacks."""

    def __init__(
        self, callbacks: Optional[Iterable[TrainerCallback]] = None
    ) -> None:
        self.callbacks: List[TrainerCallback] = [
            c for c in (callbacks or []) if c is not None
        ]

    def __len__(self) -> int:
        return len(self.callbacks)

    def append(self, callback: TrainerCallback) -> None:
        """Register one more callback."""
        self.callbacks.append(callback)

    def on_train_start(self, trainer: Any = None) -> None:
        for c in self.callbacks:
            c.on_train_start(trainer)

    def on_episode_start(self, episode: int) -> None:
        for c in self.callbacks:
            c.on_episode_start(episode)

    def on_step(self, info: StepInfo) -> None:
        for c in self.callbacks:
            c.on_step(info)

    def on_episode_end(self, stats: Any) -> None:
        for c in self.callbacks:
            c.on_episode_end(stats)

    def on_train_end(self, history: Any) -> None:
        for c in self.callbacks:
            c.on_train_end(history)
