"""Test doubles for the telemetry layer: a recording callback and an
in-memory sink."""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.telemetry.callbacks import StepInfo, TrainerCallback
from repro.telemetry.sinks import json_safe


class MemorySink:
    """Keeps records in a list; the test double."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self.flush_calls = 0
        self.closed = False

    def emit(self, record: dict) -> None:
        if self.closed:
            raise RuntimeError("emit() on a closed sink")
        self.records.append(json_safe(record))

    def flush(self) -> None:
        self.flush_calls += 1

    def close(self) -> None:
        self.closed = True


class RecordingCallback(TrainerCallback):
    """Records ``(hook_name, payload)`` tuples; the test double."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, Any]] = []

    def on_train_start(self, trainer: Any = None) -> None:
        self.calls.append(("train_start", trainer))

    def on_episode_start(self, episode: int) -> None:
        self.calls.append(("episode_start", episode))

    def on_step(self, info: StepInfo) -> None:
        self.calls.append(("step", info))

    def on_episode_end(self, stats: Any) -> None:
        self.calls.append(("episode_end", stats))

    def on_train_end(self, history: Any) -> None:
        self.calls.append(("train_end", history))

    def hook_sequence(self) -> List[str]:
        """Just the hook names, in call order."""
        return [name for name, _ in self.calls]
