"""Environment wrappers: composable behaviour shims.

All wrappers forward attribute access to the wrapped environment so the
trainer (and nested wrappers) see the full interface.
"""

from __future__ import annotations

from typing import Any

import numpy as np


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
