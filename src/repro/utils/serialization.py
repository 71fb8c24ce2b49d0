"""JSON persistence for run records.

Training histories and experiment results are plain dataclasses over
floats/strings; this module round-trips them through JSON so runs can be
archived, diffed against EXPERIMENTS.md, and re-plotted without re-running.
NumPy scalars/arrays are converted transparently.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Union

import numpy as np

PathLike = Union[str, Path]


def atomic_write(path: PathLike, data: Union[str, bytes]) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    The payload lands in a sibling temporary file, is fsync'd, and is
    then renamed over the target, so a reader never observes a torn or
    truncated file even if the process is killed mid-write -- the
    durability contract run manifests and checkpoints rely on.
    """
    target = Path(path)
    tmp = target.with_name(target.name + f".tmp.{os.getpid()}")
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        with open(tmp, mode) as fh:
            fh.write(data)
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:  # pragma: no cover - fs without fsync support
                pass
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy types to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        # JSON has no NaN/Inf; encode as strings and decode on load.
        return {"__float__": repr(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def _from_jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        if set(obj) == {"__float__"}:
            return float(obj["__float__"].strip("'\""))
        return {k: _from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_from_jsonable(v) for v in obj]
    return obj


def dump_json(obj: Any, path: PathLike, *, indent: int = 2) -> None:
    """Serialize ``obj`` (dataclass trees welcome) to ``path``.

    Writes are atomic (:func:`atomic_write`), so a kill mid-dump leaves
    either the previous document or the new one, never a fragment.
    """
    atomic_write(path, json.dumps(_to_jsonable(obj), indent=indent))


def load_json(path: PathLike) -> Any:
    """Load a document written by :func:`dump_json` (as dicts/lists)."""
    return _from_jsonable(json.loads(Path(path).read_text()))


def save_history(history, path: PathLike) -> None:
    """Persist a :class:`repro.rl.trainer.TrainingHistory`."""
    dump_json(history, path)


def decode_history(data):
    """Rebuild a TrainingHistory from its JSON tree (the one decoder:
    history files and checkpoint metas both come through here)."""
    from repro.rl.learner import EpisodeStats, TrainingHistory

    raw = _from_jsonable(data)
    return TrainingHistory(
        episodes=[EpisodeStats(**ep) for ep in raw["episodes"]],
        total_steps=raw["total_steps"],
        wall_seconds=raw["wall_seconds"],
        timer_report=raw.get("timer_report", ""),
    )
