"""Environment wrappers: composable behaviour shims.

All wrappers forward attribute access to the wrapped environment so the
trainer (and nested wrappers) see the full interface.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.utils.running_stats import RunningStats


class Wrapper:
    """Base pass-through wrapper."""

    def __init__(self, env):
        self.env = env

    def reset(self) -> np.ndarray:
        return self.env.reset()

    def step(self, action: int):
        return self.env.step(action)

    def __getattr__(self, name: str) -> Any:
        # Called only when normal lookup fails: delegate to the inner env.
        return getattr(self.env, name)


class TimeLimit(Wrapper):
    """Terminate episodes after ``max_steps`` (Table 1's T as a wrapper)."""

    def __init__(self, env, max_steps: int):
        super().__init__(env)
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.max_steps = int(max_steps)
        self._elapsed = 0

    def reset(self) -> np.ndarray:
        self._elapsed = 0
        return self.env.reset()

    def step(self, action: int):
        state, reward, done, info = self.env.step(action)
        self._elapsed += 1
        if self._elapsed >= self.max_steps and not done:
            done = True
            info.setdefault("termination", "time-limit")
            info["time_limit_truncated"] = True
        return state, reward, done, info


class StateNormalizer(Wrapper):
    """Online z-score normalization of states.

    The paper feeds raw coordinates (and notes in Section 4 that the
    unnormalized inputs inflate Q magnitudes); this wrapper is the
    ablation lever for that choice.
    """

    def __init__(self, env, *, eps: float = 1e-8, freeze_after: int | None = None):
        super().__init__(env)
        self.eps = float(eps)
        self.freeze_after = freeze_after
        self._stats: RunningStats | None = None

    def _normalize(self, state: np.ndarray) -> np.ndarray:
        if self._stats is None:
            self._stats = RunningStats(state.shape)
        if (
            self.freeze_after is None
            or self._stats.count < self.freeze_after
        ):
            self._stats.update(state)
        std = np.asarray(self._stats.std)
        return (state - self._stats.mean) / (std + self.eps)

    def reset(self) -> np.ndarray:
        return self._normalize(self.env.reset())

    def step(self, action: int):
        state, reward, done, info = self.env.step(action)
        return self._normalize(state), reward, done, info


class ActionRepeat(Wrapper):
    """Repeat each agent action ``k`` times (DQN's frame-skip analogue).

    The paper's move granularity (0.5 deg rotations) makes single steps
    nearly score-neutral; repeating an action coarsens the effective
    step without changing the engine.  Rewards are re-derived from the
    *total* score change over the repeat (matching the paper's
    sign-of-delta rule at the coarser timescale) rather than summed, and
    the repeat stops early on termination.
    """

    def __init__(self, env, repeat: int):
        super().__init__(env)
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        self.repeat = int(repeat)

    def step(self, action: int):
        first_delta_known = False
        start_score = 0.0
        state, reward, done, info = self.env.step(action)
        delta = info.get("score_delta")
        if delta is not None:
            start_score = info["score"] - delta
            first_delta_known = True
        for _ in range(self.repeat - 1):
            if done:
                break
            state, reward, done, info = self.env.step(action)
        if first_delta_known and "score" in info:
            total_delta = info["score"] - start_score
            reward = float(np.sign(total_delta))
            info = dict(info, score_delta=total_delta)
        return state, reward, done, info
