"""Sinks: JSONL/CSV round-trips, buffering, and JSON safety."""

import json
import math

import numpy as np
import pytest

from repro.telemetry.sinks import (
    CsvMetricsSink,
    JsonlEventSink,
    TelemetrySink,
    json_safe,
    read_events,
    read_metrics_csv,
)

from tests.doubles import MemorySink


class TestJsonSafe:
    def test_nan_inf_become_none(self):
        rec = json_safe(
            {"a": float("nan"), "b": float("inf"), "c": -math.inf, "d": 1.5}
        )
        assert rec == {"a": None, "b": None, "c": None, "d": 1.5}

    def test_numpy_values(self):
        rec = json_safe(
            {"arr": np.arange(3), "scalar": np.float64(2.5), "i": np.int32(7)}
        )
        assert rec == {"arr": [0, 1, 2], "scalar": 2.5, "i": 7}

    def test_nested_and_tuples(self):
        assert json_safe({"t": (1, 2), "d": {"x": [np.nan]}}) == {
            "t": [1, 2],
            "d": {"x": [None]},
        }

    def test_fallback_str(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        assert json_safe(Weird()) == "<weird>"


class TestProtocol:
    def test_all_sinks_satisfy_protocol(self, tmp_path):
        sinks = [
            MemorySink(),
            JsonlEventSink(tmp_path / "e.jsonl"),
            CsvMetricsSink(tmp_path / "m.csv"),
        ]
        for sink in sinks:
            assert isinstance(sink, TelemetrySink)
            sink.close()


class TestJsonlEventSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            {"event": "run_start", "seed": 0},
            {"event": "step", "reward": -1.0, "score": float("nan")},
            {"event": "run_end", "status": "completed"},
        ]
        with JsonlEventSink(path) as sink:
            for e in events:
                sink.emit(e)
        got = read_events(path)
        assert [e["event"] for e in got] == ["run_start", "step", "run_end"]
        assert got[1]["score"] is None  # NaN -> null
        # Every line is strict JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_buffering_and_flush(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlEventSink(path, buffer_size=10)
        sink.emit({"event": "a"})
        assert path.read_text() == ""  # still buffered
        sink.flush()
        assert len(read_events(path)) == 1
        sink.close()

    def test_auto_flush_at_capacity(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlEventSink(path, buffer_size=3)
        for k in range(3):
            sink.emit({"k": k})
        assert len(read_events(path)) == 3
        sink.close()

    def test_append_mode(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit({"n": 1})
        with JsonlEventSink(path) as sink:
            sink.emit({"n": 2})
        assert [e["n"] for e in read_events(path)] == [1, 2]

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "e.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(RuntimeError):
            sink.emit({"event": "late"})

    def test_rejects_bad_buffer_size(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlEventSink(tmp_path / "e.jsonl", buffer_size=0)


class TestCsvMetricsSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        with CsvMetricsSink(path) as sink:
            sink.write_rows(
                [
                    {"name": "steps", "kind": "counter", "count": 5,
                     "value": 5.0},
                    {"name": "loss", "kind": "histogram", "count": 3,
                     "mean": 0.5, "p50": 0.4, "extra_key": "dropped"},
                ]
            )
        rows = read_metrics_csv(path)
        assert len(rows) == 2
        steps = rows[0]
        assert steps["name"] == "steps"
        assert steps["value"] == 5.0
        assert steps["p50"] is None  # missing -> empty -> None
        assert "extra_key" not in rows[1]

    def test_emit_after_close_raises(self, tmp_path):
        sink = CsvMetricsSink(tmp_path / "m.csv")
        sink.close()
        with pytest.raises(RuntimeError):
            sink.emit({"name": "x"})


class TestMemorySink:
    def test_records_json_safe_copies(self):
        sink = MemorySink()
        sink.emit({"event": "a", "v": float("nan")})
        assert sink.records == [{"event": "a", "v": None}]
        sink.flush()
        assert sink.flush_calls == 1
        sink.close()
        with pytest.raises(RuntimeError):
            sink.emit({"event": "b"})
