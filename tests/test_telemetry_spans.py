"""Span tracer: nesting and attribution."""

import time

import pytest

from repro.telemetry.spans import SpanTracer


class TestSpanTracer:
    def test_nested_paths(self):
        tr = SpanTracer()
        with tr.span("train"):
            with tr.span("act"):
                pass
            with tr.span("env-step"):
                with tr.span("score"):
                    pass
        assert sorted(s.path for s in tr.spans()) == [
            "train",
            "train/act",
            "train/env-step",
            "train/env-step/score",
        ]

    def test_counts_accumulate_per_path(self):
        tr = SpanTracer()
        for _ in range(3):
            with tr.span("a"):
                with tr.span("b"):
                    pass
        assert tr.get("a").count == 3
        assert tr.get("a/b").count == 3
        assert tr.get("a/b").parent == "a"
        assert tr.get("a/b").depth == 1

    def test_same_name_under_different_parents(self):
        tr = SpanTracer()
        with tr.span("x"):
            with tr.span("work"):
                pass
        with tr.span("y"):
            with tr.span("work"):
                pass
        assert tr.get("x/work").count == 1
        assert tr.get("y/work").count == 1
        # The flat view aggregates across parents.
        assert tr.counts_by_name()["work"] == 2

    def test_rejects_separator_in_name(self):
        tr = SpanTracer()
        with pytest.raises(ValueError):
            with tr.span("a/b"):
                pass

    def test_exception_still_records_and_pops(self):
        tr = SpanTracer()
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                raise RuntimeError("boom")
        assert tr.get("outer").count == 1
        # The stack unwound: the next span is a root, not a child.
        with tr.span("next"):
            pass
        assert tr.get("next").parent is None

    def test_self_time_excludes_children(self):
        tr = SpanTracer()
        with tr.span("parent"):
            with tr.span("child"):
                time.sleep(0.01)
        parent = tr.get("parent")
        assert parent.total >= tr.get("parent/child").total
        assert tr.self_time("parent") == pytest.approx(
            parent.total - tr.get("parent/child").total
        )
        assert tr.self_time("missing") == 0.0

    def test_as_rows_json_safe(self):
        tr = SpanTracer()
        with tr.span("a"):
            pass
        (row,) = tr.as_rows()
        assert row["path"] == "a"
        assert row["parent"] is None
        assert row["count"] == 1
        assert isinstance(row["total_seconds"], float)
        assert isinstance(row["self_seconds"], float)

    def test_reports(self):
        tr = SpanTracer()
        assert tr.report() == "(no timed sections)"
        with tr.span("train"):
            with tr.span("act"):
                pass
        tree = tr.report()
        assert "train" in tree and "  act" in tree
