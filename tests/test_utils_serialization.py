"""JSON serialization of run records."""

import math

import numpy as np
import pytest

from repro.rl.trainer import EpisodeStats, TrainingHistory
from repro.utils.serialization import (
    decode_history,
    dump_json,
    load_json,
    save_history,
)


class TestJsonRoundtrip:
    def test_plain_types(self, tmp_path):
        doc = {"a": 1, "b": [1.5, "x"], "c": {"d": True}}
        p = tmp_path / "doc.json"
        dump_json(doc, p)
        assert load_json(p) == doc

    def test_numpy_types(self, tmp_path):
        doc = {
            "arr": np.arange(3.0),
            "scalar": np.float64(2.5),
            "int": np.int32(7),
            "flag": np.bool_(True),
        }
        p = tmp_path / "doc.json"
        dump_json(doc, p)
        back = load_json(p)
        assert back["arr"] == [0.0, 1.0, 2.0]
        assert back["scalar"] == 2.5
        assert back["int"] == 7
        assert back["flag"] is True

    def test_nan_and_inf(self, tmp_path):
        doc = {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")}
        p = tmp_path / "doc.json"
        dump_json(doc, p)
        back = load_json(p)
        assert math.isnan(back["nan"])
        assert back["inf"] == float("inf")
        assert back["ninf"] == float("-inf")

    def test_dataclass_tree(self, tmp_path):
        stats = EpisodeStats(
            episode=0, steps=5, total_reward=1.0, avg_max_q=2.0,
            best_score=3.0, final_score=2.5, epsilon=0.1, mean_loss=0.01,
            learning_active=True, termination="escape",
            min_crystal_rmsd=1.2,
        )
        p = tmp_path / "s.json"
        dump_json(stats, p)
        back = load_json(p)
        assert back["termination"] == "escape"
        assert back["min_crystal_rmsd"] == 1.2


class TestHistoryRoundtrip:
    def _history(self):
        h = TrainingHistory(total_steps=20, wall_seconds=1.5)
        for k in range(3):
            h.episodes.append(
                EpisodeStats(
                    episode=k, steps=10, total_reward=float(k),
                    avg_max_q=float(k) * 2, best_score=float(k) + 1,
                    final_score=float(k), epsilon=0.5, mean_loss=0.1,
                    learning_active=k > 0, termination="x",
                    min_crystal_rmsd=float("nan") if k == 0 else 1.0,
                )
            )
        return h

    def test_roundtrip(self, tmp_path):
        h = self._history()
        p = tmp_path / "h.json"
        save_history(h, p)
        back = decode_history(load_json(p))
        assert back.total_steps == 20
        assert back.wall_seconds == 1.5
        assert len(back.episodes) == 3
        np.testing.assert_allclose(
            back.figure4_series(), h.figure4_series()
        )
        assert math.isnan(back.episodes[0].min_crystal_rmsd)

    def test_real_training_history(self, tmp_path, tiny_run_config):
        from repro.experiments.figure4 import run_figure4_experiment

        result = run_figure4_experiment(tiny_run_config)
        p = tmp_path / "run.json"
        save_history(result.history, p)
        back = decode_history(load_json(p))
        assert back.best_score == pytest.approx(result.history.best_score)
        assert back.docking_success_rate() == pytest.approx(
            result.history.docking_success_rate()
        )
