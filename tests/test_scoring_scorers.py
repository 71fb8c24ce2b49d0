"""Pluggable scorers: exact/cutoff agreement, registry and engine wiring."""

import numpy as np
import pytest

from repro.metadock.engine import MetadockEngine
from repro.scoring.composite import interaction_score
from repro.scoring.incremental import IncrementalScorer
from repro.scoring.scorers import (
    SCORER_REGISTRY,
    SCORING_METHODS,
    ExactScorer,
    make_scorer,
    validate_scoring_kwargs,
)


@pytest.fixture(scope="module")
def pair(small_complex):
    lig = small_complex.ligand_crystal
    template = lig.with_coords(lig.coords - lig.centroid())
    return small_complex.receptor, template, lig.coords


class TestExactScorer:
    def test_matches_interaction_score(self, pair, small_complex):
        rec, template, coords = pair
        scorer = ExactScorer(rec, template)
        assert scorer.score(coords) == pytest.approx(
            interaction_score(small_complex.receptor, small_complex.ligand_crystal)
        )

    def test_batch_matches_single(self, pair, rng):
        rec, template, coords = pair
        scorer = ExactScorer(rec, template)
        batch = coords[None] + rng.normal(scale=1.0, size=(4, 1, 3))
        out = scorer.score_batch(batch)
        for k in range(4):
            assert out[k] == pytest.approx(scorer.score(batch[k]), rel=1e-9)


class TestCutoffScorer:
    """The registry's "cutoff" method: the Verlet scorer at skin 0."""

    def test_converges_to_exact(self, pair):
        rec, template, coords = pair
        exact = ExactScorer(rec, template).score(coords)
        errors = []
        for cutoff in (6.0, 12.0, 24.0):
            approx = make_scorer(
                "cutoff", rec, template, cutoff=cutoff
            ).score(coords)
            errors.append(abs(approx - exact))
        assert errors[-1] <= errors[0]
        assert errors[-1] < 0.05 * max(abs(exact), 1.0)

    def test_huge_unshifted_cutoff_is_exact(self, pair):
        rec, template, coords = pair
        exact = ExactScorer(rec, template).score(coords)
        full = make_scorer(
            "cutoff", rec, template, cutoff=1000.0, shifted=False
        ).score(coords)
        assert full == pytest.approx(exact, rel=1e-9)

    def test_shift_vanishes_with_cutoff(self, pair):
        rec, template, coords = pair
        exact = ExactScorer(rec, template).score(coords)
        shifted = make_scorer(
            "cutoff", rec, template, cutoff=1e6
        ).score(coords)
        assert shifted == pytest.approx(exact, rel=1e-4)

    def test_far_pose_scores_zero(self, pair):
        rec, template, coords = pair
        scorer = make_scorer("cutoff", rec, template, cutoff=8.0)
        assert scorer.score(coords + 500.0) == 0.0

    def test_batch_matches_single(self, pair, rng):
        rec, template, coords = pair
        scorer = make_scorer("cutoff", rec, template, cutoff=10.0)
        batch = coords[None] + rng.normal(scale=1.0, size=(3, 1, 3))
        out = scorer.score_batch(batch)
        for k in range(3):
            assert out[k] == pytest.approx(scorer.score(batch[k]))

    def test_invalid_cutoff(self, pair):
        rec, template, _ = pair
        with pytest.raises(ValueError):
            make_scorer("cutoff", rec, template, cutoff=0.0)

    def test_clash_still_catastrophic(self, pair):
        rec, template, _coords = pair
        scorer = make_scorer("cutoff", rec, template, cutoff=10.0)
        clash = np.tile(rec.coords[0], (template.n_atoms, 1))
        assert scorer.score(clash) < -1e6


class TestScorerRegistry:
    def test_methods_in_sync_with_config_literal(self):
        # Oracle + production + one neighbour-list family; config.py
        # validates scoring_method against this same registry.
        from repro.config import ci_scale_config

        assert SCORING_METHODS == ("exact", "cutoff", "incremental", "field")
        assert tuple(SCORER_REGISTRY) == SCORING_METHODS
        for method in SCORING_METHODS:
            assert ci_scale_config(4, scoring_method=method)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown scoring method") as err:
            validate_scoring_kwargs("quantum", {})
        assert "removed" not in str(err.value)

    def test_unknown_kwarg_lists_valid_names(self):
        with pytest.raises(ValueError, match="cutoff"):
            validate_scoring_kwargs("cutoff", {"cutof": 9.0})
        # The retired bin-size knob gets the ordinary unknown-kwarg
        # error: queries no longer depend on the bin edge.
        for method in ("cutoff", "incremental"):
            with pytest.raises(ValueError, match="accepts no kwarg"):
                validate_scoring_kwargs(method, {"cell_size": 4.0})

    def test_type_mismatch(self):
        with pytest.raises(ValueError, match="must be int/float"):
            validate_scoring_kwargs("incremental", {"skin": "thick"})
        # bool is an int subclass but not a valid numeric kwarg value.
        with pytest.raises(ValueError, match="got bool"):
            validate_scoring_kwargs("cutoff", {"cutoff": True})

    def test_runtime_only_kwarg(self):
        with pytest.raises(ValueError, match="runtime-only"):
            validate_scoring_kwargs("cutoff", {"cells": None})
        # make_scorer's path allows it.
        validate_scoring_kwargs(
            "cutoff", {"cells": None}, allow_runtime=True
        )

    def test_valid_kwargs_pass(self):
        validate_scoring_kwargs("exact", {})
        validate_scoring_kwargs(
            "incremental",
            {"cutoff": 12.0, "skin": 3, "shifted": True},
        )
        validate_scoring_kwargs("field", {"spacing": 0.8, "padding": 4.0})

    def test_config_rejects_bad_kwargs_at_construction(self):
        from repro.config import ci_scale_config

        with pytest.raises(ValueError, match="accepts no kwarg"):
            ci_scale_config(
                4, scoring_method="cutoff", scoring_kwargs={"cutof": 9.0}
            )
        with pytest.raises(ValueError, match="runtime-only"):
            ci_scale_config(
                4, scoring_method="cutoff", scoring_kwargs={"cells": None}
            )

    def test_make_scorer_validates(self, pair):
        rec, template, _ = pair
        with pytest.raises(ValueError, match="accepts no kwarg"):
            make_scorer("cutoff", rec, template, cuttoff=9.0)


class TestFactoryAndEngine:
    def test_factory(self, pair):
        rec, template, _ = pair
        assert isinstance(make_scorer("exact", rec, template), ExactScorer)
        cut = make_scorer("cutoff", rec, template, cutoff=9.0)
        assert isinstance(cut, IncrementalScorer) and cut.skin == 0.0
        with pytest.raises(ValueError):
            make_scorer("quantum", rec, template)

    def test_engine_cutoff_mode(self, small_complex):
        exact_eng = MetadockEngine(small_complex)
        cut_eng = MetadockEngine(
            small_complex,
            scoring_method="cutoff",
            scoring_kwargs={"cutoff": 1000.0, "shifted": False},
        )
        exact_eng.reset()
        cut_eng.reset()
        assert cut_eng.score() == pytest.approx(exact_eng.score(), rel=1e-9)

    def test_engine_scorer_used_for_batches(self, small_complex):
        eng = MetadockEngine(
            small_complex,
            scoring_method="cutoff",
            scoring_kwargs={"cutoff": 12.0},
        )
        eng.reset()
        poses = [eng.pose, eng.pose.translated([1.0, 0, 0])]
        batch = eng.score_poses(poses)
        singles = [eng.score_pose(p) for p in poses]
        np.testing.assert_allclose(batch, singles)
