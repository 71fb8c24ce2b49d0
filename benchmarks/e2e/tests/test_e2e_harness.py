"""Self-tests of the e2e benchmark harness (smoke scale only).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.
They are not part of tier-1 (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import run as bench  # noqa: E402  (pins BLAS threads, extends sys.path)
from layers import (  # noqa: E402
    END_TO_END,
    FRACTIONS,
    PER_LAYER,
    bounding_layer,
    self_fractions,
)
from measure import (  # noqa: E402
    TAIL_LADDER,
    Calibrator,
    digest,
    latency_summary,
    quartiles,
    segment_summary,
    spread,
    tail_percentile,
)
from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    PLANS,
    WORKLOADS,
    expected_evaluations,
    make_workload,
    patch_points,
)

MS = 1_000_000


def synthetic_tree() -> SpanRecorder:
    """bench.root[0,100ms] > rl.run[10,90] > {env.step[20,50] >
    scoring.score[25,45]; nn.forward[60,80]}."""
    rec = SpanRecorder()
    rec.names = ["bench.root", "rl.run", "env.step", "scoring.score", "nn.forward"]
    rec.parents = [-1, 0, 1, 2, 1]
    rec.starts = [0, 10 * MS, 20 * MS, 25 * MS, 60 * MS]
    rec.ends = [100 * MS, 90 * MS, 50 * MS, 45 * MS, 80 * MS]
    return rec


class TestSelfTime:
    def test_self_time_is_duration_minus_children(self):
        rec = synthetic_tree()
        assert rec.self_ns().tolist() == [
            20 * MS, 30 * MS, 10 * MS, 20 * MS, 20 * MS
        ]

    def test_self_times_sum_to_the_root(self):
        rec = synthetic_tree()
        assert rec.self_ns().sum() == rec.durations_ns()[0]
        fractions = self_fractions(rec)
        assert set(fractions) == set(FRACTIONS)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["rl.loop_self_frac"] == pytest.approx(0.30)
        assert fractions["scoring.busy_frac"] == pytest.approx(0.20)
        assert fractions["bench.self_frac"] == pytest.approx(0.20)

    def test_bounding_layer_ignores_the_harness_share(self):
        fractions = dict.fromkeys(FRACTIONS, 0.0)
        fractions.update({
            "bench.self_frac": 0.5,
            "rl.learn_busy_frac": 0.2,
            "rl.loop_self_frac": 0.1,
            "scoring.busy_frac": 0.25,
        })
        assert bounding_layer(fractions) == "rl"

    def test_recorded_spans_nest_and_restore_current(self):
        rec = SpanRecorder()
        inner = rec.proxy("env.step", lambda x: x + 1)
        outer = rec.proxy("rl.run", lambda x: inner(x) * 2, lambda a, r: r)
        with rec.span("bench.root"):
            assert outer(1) == 4
        assert rec.names == ["bench.root", "rl.run", "env.step"]
        assert rec.parents == [-1, 0, 1]
        assert rec.values == {1: 4}
        assert rec._current == -1
        assert rec.self_ns().sum() == rec.durations_ns()[0]

    def test_child_sum_and_select_by_parent(self):
        rec = synthetic_tree()
        run_idx = rec.select("rl.run")
        assert rec.child_sum_ns(run_idx, ("env.step", "nn.forward")).tolist() == [
            50 * MS
        ]
        assert rec.select("scoring.score", parent="env.step").tolist() == [3]
        assert rec.select("scoring.score", parent="rl.run").size == 0


class TestStatistics:
    @pytest.mark.parametrize(
        "n, expected",
        [(5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (100, 90.0),
         (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_tail_needs_ten_samples_beyond_it(self, n, expected):
        assert tail_percentile(n) == expected
        beyond = dict(TAIL_LADDER)
        if expected > 50.0:
            assert n * beyond[expected] >= 10 * 1000
        higher = [p for p, _ in TAIL_LADDER if p > expected]
        if higher:
            assert n * beyond[higher[0]] < 10 * 1000

    def test_latency_summary_units_and_counts(self):
        samples = np.arange(1, 201) * 1000  # 1..200 us in ns
        out = latency_summary(samples, 1e3)
        assert out["n"] == 200
        assert out["tail_pct"] == 95.0
        assert out["p50"] == pytest.approx(100.5)
        assert out["tail"] == pytest.approx(np.percentile(np.arange(1, 201), 95))
        assert latency_summary([], 1e3)["n"] == 0

    def test_segment_quartiles_match_the_driver_formula(self):
        speeds = [1.0, 0.8, 1.25, 1.0, 0.5]
        seconds = [1.0, 1.25, 0.8, 1.1, 2.0]
        segments = [(50, s, v) for s, v in zip(seconds, speeds)]
        rates = [50 / s / v for s, v in zip(seconds, speeds)]
        out = segment_summary(segments)
        assert out["raw_rates"] == [50 / s for s in seconds]
        # A segment that ran at half speed for twice as long is no slower.
        assert out["rates"][4] == out["rates"][0] == 50.0
        q1, _, q3 = statistics.quantiles(rates, n=4)
        assert (out["q1"], out["median"], out["q3"]) == (
            q1, statistics.median(rates), q3
        )
        assert out["n"] == 5
        assert spread(rates) == pytest.approx((q3 - q1) / statistics.median(rates))
        assert quartiles([3.0]) == (3.0, 3.0, 3.0)

    def test_machine_speed_is_reference_over_median_sample(self, monkeypatch):
        cal = Calibrator()
        assert cal.sample() > 0
        samples = iter([0.05, 0.01, 0.02])
        monkeypatch.setattr(cal, "sample", lambda: next(samples))
        assert cal.speed(3) == pytest.approx(Calibrator.REFERENCE_S / 0.02)

    def test_digest_is_stable_and_bit_sensitive(self):
        rows = [(50, -3.0, "time-limit"), (12, 1.0, "escape")]
        params = [np.arange(6, dtype=np.float32).reshape(2, 3)]
        a = digest(rows, params)
        assert a == digest(list(rows), [params[0].copy()])
        nudged = params[0].copy()
        nudged[0, 0] = np.nextafter(nudged[0, 0], np.float32(1))
        assert a != digest(rows, [nudged])
        assert a != digest([(50, -3.0000000000000004, "time-limit"), rows[1]], params)
        assert a != digest(rows, [params[0].reshape(3, 2)])


class TestContractFiles:
    def test_benchmark_json_repeats_the_metric_tables(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
        assert spec["paths"] == ["benchmarks/e2e"]
        assert spec["run_seconds"] == bench.RUN_SECONDS
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {
            m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]
        } == END_TO_END
        assert {
            m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
        } == PER_LAYER
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

    def test_scatter_budget_400_is_416_evaluations(self):
        from repro.metadock.strategies import STRATEGY_PRESETS

        assert expected_evaluations(STRATEGY_PRESETS["scatter"](400)) == 416

    def test_full_plans_scale_with_seconds(self):
        for name in WORKLOADS:
            plan = PLANS["full"][name]
            assert plan.units(12) >= 2 * plan.units(6) - 1
            assert PLANS["smoke"][name].units(60) == PLANS["smoke"][name].min_units


class TestSmokeRuns:
    def test_proxies_are_removed_to_the_identical_objects(self):
        workload = make_workload("train_paper", "smoke", 0, 1)
        points = patch_points(workload)
        before = {(p.owner, p.attr): vars(p.owner)[p.attr] for p in points}
        rec = SpanRecorder()
        with rec.installed(points):
            for (owner, attr), original in before.items():
                assert vars(owner)[attr] is not original
                assert vars(owner)[attr].__wrapped__ is original
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is original
        rec.remove()  # idempotent

    def test_proxies_are_removed_when_the_traced_run_raises(self):
        from repro.rl.trainer import Trainer

        original = vars(Trainer)["run"]
        workload = make_workload("train_paper", "smoke", 0, 1)
        with pytest.raises(AttributeError):
            workload.traced(1)  # no setup(): trainer is None
        assert vars(Trainer)["run"] is original

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_traced_run_leaves_the_untraced_digest_unchanged(self, name):
        first = bench.run_once(name, 3, 1, False, "smoke")
        traced = bench.run_once(name, 3, 1, True, "smoke")
        again = bench.run_once(name, 3, 1, False, "smoke")
        assert first["correct"] and traced["correct"] and again["correct"]
        assert first["ops_failed"] == traced["ops_failed"] == 0
        assert (
            first["result_digest"]
            == traced["result_digest"]
            == again["result_digest"]
        )
        assert bench.run_once(name, 4, 1, False, "smoke")["result_digest"] != (
            first["result_digest"]
        )
        # The traced report: every metric present, shares sum to one.
        assert set(traced["per_layer"]) == set(PER_LAYER)
        assert traced["fractions_sum"] == pytest.approx(1.0, abs=0.02)
        assert traced["bounding_layer"] in {
            "scoring", "metadock", "env", "nn", "rl", "screening"
        }
        line = json.loads(bench.result_line(traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(PER_LAYER)
        line = json.loads(bench.result_line(first))
        assert set(line["metrics"]) == set(END_TO_END)
        assert all(m["value"] > 0 for m in line["metrics"].values())

    def test_gate_failure_fails_the_run(self, monkeypatch):
        from workloads import ScreenSearch

        monkeypatch.setattr(
            ScreenSearch, "gate", lambda self, measured: ["forced failure"]
        )
        report = bench.run_once("screen_search", 0, 1, False, "smoke")
        assert report["correct"] is False
        assert json.loads(bench.result_line(report))["correct"] is False
