"""Hyperparameter sweep driver."""

import pytest

from repro.experiments.sweep import run_sweep


class TestRunSweep:
    def test_sweeps_target_update(self, tiny_run_config):
        result = run_sweep(
            tiny_run_config, "target_update_steps", [25, 100]
        )
        assert set(result.results) == {25, 100}
        for r in result.results.values():
            assert len(r.history.episodes) == tiny_run_config.episodes

    def test_summary_and_best(self, tiny_run_config):
        result = run_sweep(tiny_run_config, "learning_rate", [0.001, 0.01])
        out = result.summary()
        assert "learning_rate" in out
        assert result.best_setting() in (0.001, 0.01)
        assert len(result.results) == 2
        assert "rise+decline" in out

    def test_unknown_parameter_rejected(self, tiny_run_config):
        with pytest.raises(ValueError):
            run_sweep(tiny_run_config, "warp_factor", [1])

    def test_empty_values_rejected(self, tiny_run_config):
        with pytest.raises(ValueError):
            run_sweep(tiny_run_config, "gamma", [])

    def test_variant_sweep(self, tiny_run_config):
        result = run_sweep(tiny_run_config, "variant", ["dqn", "ddqn"])
        assert set(result.results) == {"dqn", "ddqn"}
