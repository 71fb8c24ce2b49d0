"""Pluggable telemetry sinks with buffered, crash-safe flushing.

A sink receives flat dict records and owns their persistence.  Two
implementations back a run directory:

- :class:`JsonlEventSink` -- append-only ``events.jsonl``, one JSON
  object per line (the structured event log);
- :class:`CsvMetricsSink` -- rectangular ``metrics.csv`` in the
  registry's snapshot schema.

Producers never format records themselves; everything that reaches a
sink is made JSON-safe here (NaN/Inf become ``null`` so every emitted
line is strict JSON any tool can parse).
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path
from typing import Any, Iterable, List, Protocol, Union, runtime_checkable

from repro.telemetry.metrics import SNAPSHOT_COLUMNS

PathLike = Union[str, Path]


@runtime_checkable
class TelemetrySink(Protocol):
    """What the run layer requires from any sink."""

    def emit(self, record: dict) -> None:
        """Accept one flat record."""
        ...

    def flush(self) -> None:
        """Persist everything buffered so far."""
        ...

    def close(self) -> None:
        """Flush and release resources (idempotent)."""
        ...


def json_safe(obj: Any) -> Any:
    """Recursively convert a record to strict-JSON-safe values.

    Non-finite floats become None, numpy scalars/arrays become Python
    numbers/lists, tuples become lists.
    """
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy array or scalar
        return json_safe(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


class JsonlEventSink:
    """Append-only JSON-lines file with bounded in-memory buffering.

    Records are buffered and written every ``buffer_size`` emits, with
    an OS-level flush per write so a crash loses at most one buffer.
    """

    def __init__(self, path: PathLike, *, buffer_size: int = 64) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.buffer_size = int(buffer_size)
        self._buffer: List[str] = []
        self._file = open(self.path, "a", encoding="utf-8")
        self._closed = False

    def emit(self, record: dict) -> None:
        """Buffer one event; auto-flush when the buffer is full."""
        if self._closed:
            raise RuntimeError(f"emit() on closed sink {self.path}")
        self._buffer.append(json.dumps(json_safe(record), allow_nan=False))
        if len(self._buffer) >= self.buffer_size:
            self.flush()

    def flush(self) -> None:
        """Write buffered lines through to the OS (fsync'd).

        The fsync makes every flushed event durable, so a SIGKILL after
        a checkpoint flush cannot roll the event log back behind the
        checkpoint it describes.
        """
        if self._closed or not self._buffer:
            return
        self._file.write("\n".join(self._buffer) + "\n")
        self._buffer.clear()
        self._file.flush()
        try:
            os.fsync(self._file.fileno())
        except OSError:  # pragma: no cover - fs without fsync support
            pass

    def close(self) -> None:
        """Flush, fsync, and close the file (idempotent)."""
        if self._closed:
            return
        self.flush()
        try:
            os.fsync(self._file.fileno())
        except OSError:  # pragma: no cover - fs without fsync support
            pass
        self._file.close()
        self._closed = True

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: PathLike) -> List[dict]:
    """Load every event from a ``events.jsonl`` file, in emit order.

    A torn final line (the process was killed mid-append) is skipped
    rather than raised, so logs from interrupted runs stay readable --
    everything before the tear is intact because flushes are whole-line.
    """
    out: List[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return out


class CsvMetricsSink:
    """Rectangular CSV in the registry snapshot schema.

    Each emitted record is one row; keys outside
    :data:`~repro.telemetry.metrics.SNAPSHOT_COLUMNS` are dropped,
    missing keys become empty cells.
    """

    def __init__(
        self, path: PathLike, *, columns: Iterable[str] = SNAPSHOT_COLUMNS
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.columns = list(columns)
        self._file = open(self.path, "w", encoding="utf-8", newline="")
        self._writer = csv.DictWriter(
            self._file, fieldnames=self.columns, extrasaction="ignore"
        )
        self._writer.writeheader()
        self._closed = False

    def emit(self, record: dict) -> None:
        """Write one metric row."""
        if self._closed:
            raise RuntimeError(f"emit() on closed sink {self.path}")
        safe = {k: json_safe(v) for k, v in record.items()}
        self._writer.writerow({c: safe.get(c, "") for c in self.columns})

    def write_rows(self, rows: Iterable[dict]) -> None:
        """Emit many rows (registry snapshot helper)."""
        for row in rows:
            self.emit(row)

    def flush(self) -> None:
        """Push buffered rows to the OS."""
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        """Flush and close (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._file.close()
        self._closed = True

    def __enter__(self) -> "CsvMetricsSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_metrics_csv(path: PathLike) -> List[dict]:
    """Load ``metrics.csv`` rows with numeric cells coerced to float."""
    rows: List[dict] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for raw in csv.DictReader(fh):
            row: dict = {}
            for key, cell in raw.items():
                if cell is None or cell == "":
                    row[key] = None
                else:
                    try:
                        row[key] = float(cell)
                    except ValueError:
                        row[key] = cell
            rows.append(row)
    return rows
