"""Metaheuristic schema, strategies, Monte Carlo, spots."""

import numpy as np
import pytest

from repro.metadock.metaheuristic import (
    MetaheuristicParams,
    MetaheuristicSchema,
)
from repro.metadock.montecarlo import (
    MonteCarloConfig,
    MonteCarloOptimizer,
)
from repro.metadock.spots import surface_atoms, surface_spots
from repro.metadock.strategies import STRATEGY_PRESETS


class TestMetaheuristicParams:
    def test_selection_bounded_by_population(self):
        with pytest.raises(ValueError):
            MetaheuristicParams(population_size=4, n_best_select=4, n_worst_select=1)

    def test_mutation_rate_bounds(self):
        with pytest.raises(ValueError):
            MetaheuristicParams(mutation_rate=1.5)

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError):
            MetaheuristicParams(generations=-1)

    def test_presets_valid(self):
        for name, factory in STRATEGY_PRESETS.items():
            params = factory(100)
            assert params.max_evaluations == 100, name


class TestMetaheuristicSchema:
    def test_improves_over_generations(self, engine):
        params = MetaheuristicParams(
            population_size=12,
            n_best_select=4,
            n_worst_select=1,
            n_combine=6,
            improve_iterations=2,
            generations=6,
        )
        res = MetaheuristicSchema(engine, params, seed=0).run()
        assert res.history[-1] >= res.history[0]

    def test_history_monotone(self, engine):
        params = STRATEGY_PRESETS["scatter"](400)
        res = MetaheuristicSchema(engine, params, seed=1).run()
        assert all(b >= a - 1e-9 for a, b in zip(res.history, res.history[1:]))

    def test_budget_respected_approximately(self, engine):
        params = STRATEGY_PRESETS["ga"](150)
        res = MetaheuristicSchema(engine, params, seed=2).run()
        # The loop checks the cap between phases; one generation of
        # overshoot is allowed.
        assert res.evaluations <= 150 + params.population_size + params.n_combine + 50

    def test_deterministic_in_seed(self, engine):
        params = STRATEGY_PRESETS["local"](120)
        a = MetaheuristicSchema(engine, params, seed=7).run()
        b = MetaheuristicSchema(engine, params, seed=7).run()
        assert a.best_score == pytest.approx(b.best_score)

    def test_random_search_is_best_of_init(self, engine):
        params = STRATEGY_PRESETS["random"](None)
        res = MetaheuristicSchema(engine, params, seed=3).run()
        assert len(res.history) == 1
        assert res.evaluations == params.population_size * max(
            1, params.init_candidates
        )

    def test_beats_random_search(self, engine):
        budget = 300
        rand = MetaheuristicSchema(
            engine, STRATEGY_PRESETS["random"](budget), seed=4
        ).run()
        local = MetaheuristicSchema(
            engine, STRATEGY_PRESETS["local"](budget), seed=4
        ).run()
        assert local.best_score >= rand.best_score - 5.0

    def test_summary_string(self, engine):
        res = MetaheuristicSchema(
            engine, STRATEGY_PRESETS["random"](50), seed=5
        ).run()
        assert "best score" in res.summary()

    def test_flexible_poses_supported(self, flex_engine):
        params = MetaheuristicParams(
            population_size=6,
            n_best_select=3,
            n_worst_select=0,
            n_combine=3,
            improve_iterations=1,
            generations=3,
        )
        res = MetaheuristicSchema(flex_engine, params, seed=6).run()
        assert len(res.best_pose.torsions) == 2


class TestMonteCarloConfig:
    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(steps=0)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(temperature_final=0.0)


class TestMonteCarlo:
    def test_finds_positive_score(self, engine):
        res = MonteCarloOptimizer(
            engine, MonteCarloConfig(steps=400, restarts=2), seed=0
        ).run()
        assert res.best_score > 0.0

    def test_history_best_so_far_monotone(self, engine):
        res = MonteCarloOptimizer(
            engine, MonteCarloConfig(steps=200, restarts=1), seed=1
        ).run()
        assert all(b >= a for a, b in zip(res.history, res.history[1:]))

    def test_acceptance_rate_in_range(self, engine):
        res = MonteCarloOptimizer(
            engine, MonteCarloConfig(steps=200, restarts=2), seed=2
        ).run()
        assert 0.0 < res.acceptance_rate <= 1.0

    def test_deterministic(self, engine):
        cfg = MonteCarloConfig(steps=150, restarts=1)
        a = MonteCarloOptimizer(engine, cfg, seed=3).run()
        b = MonteCarloOptimizer(engine, cfg, seed=3).run()
        assert a.best_score == pytest.approx(b.best_score)

    def test_evaluation_accounting(self, engine):
        cfg = MonteCarloConfig(steps=100, restarts=2)
        res = MonteCarloOptimizer(engine, cfg, seed=4).run()
        # restarts x (1 init + steps_per) evaluations
        assert res.evaluations == 2 * (1 + 50)

    def test_summary(self, engine):
        res = MonteCarloOptimizer(
            engine, MonteCarloConfig(steps=60, restarts=1), seed=5
        ).run()
        assert "acceptance" in res.summary()


class TestSpots:
    def test_surface_atoms_on_shell(self, small_complex):
        rec = small_complex.receptor
        idx = surface_atoms(rec, shell=2.5)
        assert idx.size > 0
        center = rec.centroid()
        r = np.linalg.norm(rec.coords - center, axis=1)
        assert (r[idx] >= r.max() - 2.5 - 1e-9).all()

    def test_spot_count_and_coverage(self, small_complex):
        spots = surface_spots(small_complex.receptor, 6)
        assert 1 <= len(spots) <= 6
        total = sum(s.n_atoms for s in spots)
        assert total == surface_atoms(small_complex.receptor).size

    def test_anchors_outside_surface(self, small_complex):
        rec = small_complex.receptor
        center = rec.centroid()
        max_r = np.linalg.norm(rec.coords - center, axis=1).max()
        for s in surface_spots(rec, 8, standoff=3.0):
            # anchor sits near/above the local surface radius
            assert np.linalg.norm(s.center - center) > max_r - 4.0

    def test_spots_capped_by_surface_atoms(self, small_complex):
        spots = surface_spots(small_complex.receptor, 10000)
        assert len(spots) <= surface_atoms(small_complex.receptor).size

    def test_invalid_count(self, small_complex):
        with pytest.raises(ValueError):
            surface_spots(small_complex.receptor, 0)
