"""Blind docking over surface spots."""

import numpy as np
import pytest

from repro.metadock.blind import blind_dock, default_workers


class TestBlindDock:
    @pytest.fixture(scope="class")
    def result(self, small_complex):
        return blind_dock(
            small_complex,
            n_spots=8,
            budget_per_spot=100,
            seed=0,
            n_workers=1,
        )

    def test_all_spots_reported(self, result):
        assert len(result.spots) == 8
        assert result.total_evaluations == sum(
            r.evaluations for r in result.spots
        )

    def test_ranked_descending(self, result):
        scores = [r.best_score for r in result.spots]
        assert scores == sorted(scores, reverse=True)
        assert result.best.best_score == scores[0]

    def test_finds_the_pocket(self, result, small_complex):
        # The winning spot's pose must be near the true pocket center --
        # blind docking's success criterion.
        assert result.best.pocket_distance < 6.0

    def test_winner_beats_most_spots_clearly(self, result):
        scores = [r.best_score for r in result.spots]
        assert scores[0] > np.median(scores)

    def test_summary_table(self, result):
        out = result.summary()
        assert "Blind docking" in out
        assert "dist to pocket" in out

    def test_deterministic_across_worker_counts(self, small_complex):
        serial = blind_dock(
            small_complex, n_spots=4, budget_per_spot=60, seed=3, n_workers=1
        )
        parallel = blind_dock(
            small_complex, n_spots=4, budget_per_spot=60, seed=3, n_workers=2
        )
        assert [r.spot_index for r in serial.spots] == [
            r.spot_index for r in parallel.spots
        ]
        np.testing.assert_allclose(
            [r.best_score for r in serial.spots],
            [r.best_score for r in parallel.spots],
        )

    def test_unknown_strategy_rejected(self, small_complex):
        with pytest.raises(ValueError):
            blind_dock(small_complex, strategy="quantum")

    def test_poses_rescoreable(self, result, small_complex):
        from repro.metadock.engine import MetadockEngine

        engine = MetadockEngine(small_complex)
        best = result.best
        assert engine.score_pose(best.best_pose) == pytest.approx(
            best.best_score, rel=1e-9
        )

    def test_default_workers_positive(self):
        assert 1 <= default_workers() <= 8
