"""Experiment drivers: Table 1, Figure 4, geometry, baselines, ablations."""

import numpy as np

from repro.config import PAPER_CONFIG, ci_scale_config
from repro.experiments.ablations import run_comm_ablation
from repro.experiments.baselines import run_baseline_comparison
from repro.experiments.figure4 import (
    CurveShape,
    curve_shape_metrics,
    run_figure4_experiment,
)
from repro.experiments.geometry import ascii_projection, run_geometry_experiment
from repro.experiments.table1 import (
    PAPER_TABLE1,
    render_table1,
    verify_paper_defaults,
)

from tests.conftest import SMALL_COMPLEX_CFG


class TestTable1:
    def test_paper_defaults_exact(self):
        assert verify_paper_defaults() == []

    def test_mismatch_detected(self):
        bad = PAPER_CONFIG.replace(gamma=0.5)
        problems = verify_paper_defaults(bad)
        assert len(problems) == 1
        assert "gamma" in problems[0]

    def test_render_contains_all_values(self):
        table = render_table1()
        for value in ("1,800", "16,599", "400,000", "0.00025", "RMSprop"):
            assert value in table

    def test_published_row_count(self):
        assert len(PAPER_TABLE1) == 20


class TestCurveShapeMetrics:
    def test_rise_and_decline_detected(self):
        series = np.concatenate(
            [np.linspace(0, 10, 30), np.linspace(10, 6, 30)]
        )
        shape = curve_shape_metrics(series, smooth=3)
        assert shape.rose
        assert shape.declined_after_peak
        assert shape.peak_interior
        assert shape.paper_shape

    def test_monotone_rise_no_decline(self):
        shape = curve_shape_metrics(np.linspace(0, 5, 40), smooth=1)
        assert shape.rose and not shape.declined_after_peak
        assert not shape.paper_shape

    def test_flat_curve(self):
        shape = curve_shape_metrics(np.ones(20), smooth=1)
        assert not shape.rose

    def test_empty(self):
        shape = curve_shape_metrics(np.array([]))
        assert shape.n_points == 0
        assert not shape.paper_shape

    def test_smoothing_removes_noise_spike(self):
        rng = np.random.default_rng(0)
        base = np.concatenate([np.linspace(0, 10, 50), np.linspace(10, 7, 50)])
        noisy = base + rng.normal(scale=0.3, size=100)
        shape = curve_shape_metrics(noisy, smooth=7)
        assert shape.paper_shape


class TestFigure4Experiment:
    def test_tiny_run_produces_series(self, tiny_run_config):
        result = run_figure4_experiment(tiny_run_config)
        assert len(result.history.episodes) == tiny_run_config.episodes
        assert result.series.size > 0
        assert result.agent is not None
        assert "Figure 4" in result.summary()

    def test_deterministic(self, tiny_run_config):
        a = run_figure4_experiment(tiny_run_config)
        b = run_figure4_experiment(tiny_run_config)
        np.testing.assert_allclose(a.series, b.series)

    def test_variant_ddqn_runs(self, tiny_run_config):
        result = run_figure4_experiment(tiny_run_config.replace(variant="ddqn"))
        assert result.series.size > 0

    def test_variant_distributional_runs(self, tiny_run_config):
        result = run_figure4_experiment(
            tiny_run_config.replace(variant="distributional")
        )
        assert result.series.size > 0

    def test_q_rises_during_learning(self):
        # The robust half of the Figure 4 shape at test scale: average
        # max Q grows once learning starts (rewards are mostly +-1 and
        # gamma near 1).  The decline half is asserted at bench scale.
        cfg = ci_scale_config(episodes=30, seed=0, learning_rate=0.002)
        result = run_figure4_experiment(cfg)
        s = result.shape(smooth=5)
        assert s.rose
        assert s.peak > 2.0 * max(s.first, 0.1)


class TestGeometryExperiment:
    def test_report_invariants(self):
        report = run_geometry_experiment(SMALL_COMPLEX_CFG)
        assert report.pocket_is_optimum
        assert report.overlap_is_catastrophic
        assert report.crystal_distance < report.initial_distance
        out = report.summary()
        assert "crystal pose" in out

    def test_ascii_projection_has_both_poses(self, small_complex):
        art = ascii_projection(small_complex)
        assert "A" in art and "B" in art and "." in art


class TestBaselineComparison:
    def test_all_methods_reported(self):
        cfg = ci_scale_config(episodes=4, seed=0, max_steps=20)
        comp = run_baseline_comparison(
            cfg, budget=150, strategies=("montecarlo", "random")
        )
        methods = {r.method for r in comp.results}
        assert methods == {
            "montecarlo",
            "metaheuristic-random",
            "dqn-docking",
        }
        assert comp.crystal_score > 0

    def test_summary_table(self):
        cfg = ci_scale_config(episodes=3, seed=1, max_steps=15)
        comp = run_baseline_comparison(
            cfg, budget=100, strategies=("random",), include_dqn=False
        )
        assert "best score" in comp.summary()

    def test_optimizers_beat_untrained_exploration(self):
        # Classical optimizers should comfortably beat the random-walk
        # scores an untrained agent stumbles into (the paper's framing).
        cfg = ci_scale_config(episodes=3, seed=0, max_steps=15)
        comp = run_baseline_comparison(
            cfg, budget=250, strategies=("local",), include_dqn=True
        )
        (local,) = [
            r for r in comp.results if r.method == "metaheuristic-local"
        ]
        assert local.best_score > 0.3 * comp.crystal_score


class TestCommAblation:
    def test_reports_three_channels(self, tiny_run_config):
        res = run_comm_ablation(tiny_run_config, steps=30)
        assert [r[0] for r in res.rows] == ["ram", "file", "file+fsync"]
        out = res.summary()
        assert "steps/sec" in out

    def test_ram_not_slower_than_fsync(self, tiny_run_config):
        res = run_comm_ablation(tiny_run_config, steps=40)
        ram_sps = float(res.rows[0][1])
        fsync_sps = float(res.rows[2][1])
        assert ram_sps > fsync_sps
