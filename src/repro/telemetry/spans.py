"""Nested span tracing: wall time with parent/child attribution.

Entering a span while another is open records the new span *under*
the open one, so a run's time decomposes into a tree ("train" -> "episode" -> "env-step"
-> "score") instead of a flat bag of names.  That is exactly what the
paper's limitation analysis needs: "engine step" vs "Q-network forward"
vs "replay sample" time is first-class, with self-time (time in a span
minus time in its children) computed per node.

Spans are identified by slash-joined paths.  The same leaf name can
appear under several parents; :meth:`SpanTracer.total` and
:meth:`SpanTracer.totals_by_name` aggregate across paths (the flat
view).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

#: Path separator between a parent span and its child.
SEP = "/"


@dataclass
class SpanStats:
    """Accumulated statistics of one span path."""

    path: str
    name: str
    parent: str | None
    total: float = 0.0
    count: int = 0

    @property
    def mean(self) -> float:
        """Mean seconds per entry."""
        return self.total / self.count if self.count else 0.0

    @property
    def depth(self) -> int:
        """Nesting depth (0 = root span)."""
        return self.path.count(SEP)


class SpanTracer:
    """Collects nested timing spans; the single timing implementation.

    >>> tracer = SpanTracer()
    >>> with tracer.span("train"):
    ...     with tracer.span("act"):
    ...         pass
    >>> sorted(s.path for s in tracer.spans())
    ['train', 'train/act']
    """

    def __init__(self) -> None:
        self._stats: Dict[str, SpanStats] = {}
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a section; nests under whichever span is currently open."""
        if SEP in name:
            raise ValueError(f"span name may not contain {SEP!r}: {name!r}")
        parent = self._stack[-1] if self._stack else None
        path = f"{parent}{SEP}{name}" if parent else name
        self._stack.append(path)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            st = self._stats.get(path)
            if st is None:
                st = self._stats[path] = SpanStats(
                    path=path, name=name, parent=parent
                )
            st.total += elapsed
            st.count += 1

    # -- queries -----------------------------------------------------------
    def spans(self) -> List[SpanStats]:
        """All recorded spans in first-completed order."""
        return list(self._stats.values())

    def get(self, path: str) -> SpanStats | None:
        """Stats of one exact path (None if never entered)."""
        return self._stats.get(path)

    def children(self, path: str) -> List[SpanStats]:
        """Direct children of ``path``."""
        return [s for s in self._stats.values() if s.parent == path]

    def self_time(self, path: str) -> float:
        """Time spent in ``path`` itself, excluding its children."""
        st = self._stats.get(path)
        if st is None:
            return 0.0
        return st.total - sum(c.total for c in self.children(path))

    def totals_by_name(self) -> Dict[str, float]:
        """Leaf-name -> total seconds, aggregated across parents."""
        out: Dict[str, float] = {}
        for s in self._stats.values():
            out[s.name] = out.get(s.name, 0.0) + s.total
        return out

    def counts_by_name(self) -> Dict[str, int]:
        """Leaf-name -> entry count, aggregated across parents."""
        out: Dict[str, int] = {}
        for s in self._stats.values():
            out[s.name] = out.get(s.name, 0) + s.count
        return out

    def total(self, name: str) -> float:
        """Total seconds for leaf name ``name`` across all parents."""
        return self.totals_by_name().get(name, 0.0)

    def mean(self, name: str) -> float:
        """Mean seconds per entry of leaf name ``name``."""
        n = self.counts_by_name().get(name, 0)
        return self.total(name) / n if n else 0.0

    # -- export -------------------------------------------------------------
    def as_rows(self) -> List[dict]:
        """Span tree as JSON-safe dicts (sink/manifest payload)."""
        return [
            {
                "path": s.path,
                "name": s.name,
                "parent": s.parent,
                "count": s.count,
                "total_seconds": round(s.total, 6),
                "mean_seconds": round(s.mean, 9),
                "self_seconds": round(self.self_time(s.path), 6),
            }
            for s in sorted(self._stats.values(), key=lambda s: s.path)
        ]

    def report(self) -> str:
        """Human-readable tree breakdown, children indented under parents."""
        if not self._stats:
            return "(no timed sections)"
        ordered = sorted(self._stats.values(), key=lambda s: s.path)
        width = max(2 * s.depth + len(s.name) for s in ordered)
        lines = []
        for s in ordered:
            label = "  " * s.depth + s.name
            lines.append(
                f"{label:<{width}}  total={s.total:9.4f}s  "
                f"calls={s.count:>6}  "
                f"mean={s.mean * 1e3:9.4f}ms  "
                f"self={self.self_time(s.path):9.4f}s"
            )
        return "\n".join(lines)
