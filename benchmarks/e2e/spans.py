"""In-memory span tree recorded by timing proxies around public callables.

The benchmark attributes time to the program's layers *from outside*:
for the traced run only, a :class:`SpanRecorder` swaps chosen class and
module attributes for thin timing proxies, and swaps the identical
original objects back afterwards.  Span names are ``<layer>.<what>``;
a span's **self** time is its duration minus its children's, so the
self times of a tree sum to the root's duration exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np


class PatchPoint(NamedTuple):
    """One attribute to proxy: ``owner.attr`` recorded as ``name``.

    ``owner`` is the class or module whose ``__dict__`` defines
    ``attr``.  ``value_of(args, result)``, when given, extracts one
    number per call (a batch size, a drained-queue length, ...) kept
    beside the span; it runs after the span has ended.
    """

    owner: object
    attr: str
    name: str
    value_of: Optional[Callable] = None


class SpanRecorder:
    """Records nested spans; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        #: span index -> number extracted by the point's ``value_of``.
        self.values: dict[int, float] = {}
        self._current = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def proxy(self, name: str, fn: Callable, value_of=None) -> Callable:
        """A callable that runs ``fn`` inside a span called ``name``."""
        names, parents = self.names, self.parents
        starts, ends = self.starts, self.ends
        values = self.values

        def timed(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(self._current)
            starts.append(0)
            ends.append(0)
            outer = self._current
            self._current = idx
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                self._current = outer
            if value_of is not None:
                values[idx] = value_of(args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def span(self, name: str):
        """Open a span around harness code (the traced run's root)."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._current)
        self.starts.append(0)
        self.ends.append(0)
        outer = self._current
        self._current = idx
        t0 = perf_counter_ns()
        try:
            yield idx
        finally:
            self.ends[idx] = perf_counter_ns()
            self.starts[idx] = t0
            self._current = outer

    # -- proxy installation ------------------------------------------------
    def install(self, points: Iterable[PatchPoint]) -> None:
        """Replace each ``owner.attr`` with a timing proxy."""
        for point in points:
            original = vars(point.owner)[point.attr]
            setattr(
                point.owner,
                point.attr,
                self.proxy(point.name, original, point.value_of),
            )
            self._installed.append((point.owner, point.attr, original))

    def remove(self) -> None:
        """Put every original object back (reverse order, idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, points: Iterable[PatchPoint]):
        """``install`` for the duration of a ``with`` block."""
        self.install(points)
        try:
            yield self
        finally:
            self.remove()

    # -- analysis ----------------------------------------------------------
    def durations_ns(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(
            self.starts, dtype=np.int64
        )

    def self_ns(self) -> np.ndarray:
        """Per-span duration minus the summed durations of its children."""
        dur = self.durations_ns()
        out = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.subtract.at(out, parents[has_parent], dur[has_parent])
        return out

    def select(self, name: str, parent: str | None = None) -> np.ndarray:
        """Indices of spans called ``name`` (directly under ``parent``)."""
        idx = [i for i, n in enumerate(self.names) if n == name]
        if parent is not None:
            idx = [
                i
                for i in idx
                if self.parents[i] >= 0
                and self.names[self.parents[i]] == parent
            ]
        return np.asarray(idx, dtype=np.int64)

    def self_seconds_by_name(self) -> dict[str, float]:
        """Summed self time per span name, seconds."""
        out: dict[str, float] = {}
        for name, ns in zip(self.names, self.self_ns()):
            out[name] = out.get(name, 0.0) + ns * 1e-9
        return out

    def child_sum_ns(self, parent_idx: np.ndarray, names: tuple) -> np.ndarray:
        """For each parent span, the summed duration of its direct
        children whose name is in ``names``."""
        pos = {int(p): k for k, p in enumerate(parent_idx)}
        out = np.zeros(len(parent_idx), dtype=np.int64)
        dur = self.durations_ns()
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name in names and parent in pos:
                out[pos[parent]] += dur[i]
        return out


def layer_of(span_name: str) -> str:
    """``"scoring.score"`` -> ``"scoring"``."""
    return span_name.split(".", 1)[0]
