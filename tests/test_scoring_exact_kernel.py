"""The Eq. 1 kernel against the frozen PR-20 composition, bit for bit.

``repro.scoring.composite.Eq1Kernel`` replaced the term-by-term
evaluation with one workspace kernel that takes H-bond angles only on
the eligible rows x columns block.  It claims to remove work, not
precision, so everything here compares with ``==`` against
``tests/frozen_eq1.py`` (a verbatim copy of what ran before) -- never
``approx``.  RuntimeWarnings are errors in this module: the non-finite
rule must return NaN without pushing NaNs through a single pass.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.builders import build_complex
from repro.chem.molecule import Molecule
from repro.config import ComplexConfig
from repro.scoring.composite import (
    Eq1Kernel,
    ScoringTables,
    interaction_breakdown,
    score_pose_batch,
)
from repro.scoring.field import FieldScorer
from repro.scoring.scorers import ExactScorer
from tests.frozen_eq1 import FrozenExactScorer

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROLE_LAYOUTS = ("none", "all", "one", "random")


def _roles(rng, n: int, layout: str):
    """(donor, acceptor) masks: no atom, every atom, one atom, or random."""
    donor = np.zeros(n, dtype=bool)
    acceptor = np.zeros(n, dtype=bool)
    if layout == "all":
        donor[:] = acceptor[:] = True
    elif layout == "one":
        (donor if rng.random() < 0.5 else acceptor)[rng.integers(n)] = True
    elif layout == "random":
        donor = rng.random(n) < 0.4
        acceptor = rng.random(n) < 0.4
    return donor, acceptor


def _molecule(rng, n: int, n_bonds: int, layout: str, spread: float):
    donor, acceptor = _roles(rng, n, layout)
    bonds = np.empty((0, 2), dtype=np.int64)
    if n > 1 and n_bonds:
        i = rng.integers(0, n, size=n_bonds)
        j = (i + rng.integers(1, n, size=n_bonds)) % n
        bonds = np.stack([i, j], axis=1)
    return Molecule(
        symbols=["C"] * n,
        coords=rng.normal(size=(n, 3)) * spread,
        charges=rng.normal(size=n) * rng.choice([0.0, 0.3, 1.0]),
        sigma=rng.uniform(1.5, 4.0, size=n),
        epsilon=rng.uniform(0.01, 0.3, size=n),
        hbond_donor=donor,
        hbond_acceptor=acceptor,
        bonds=bonds,
    )


@st.composite
def complexes(draw):
    """(receptor, ligand template, pose) over the kernel's regimes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 12))
    layouts = st.sampled_from(ROLE_LAYOUTS)
    rec = _molecule(rng, n, draw(st.integers(0, 2 * n)), draw(layouts), 6.0)
    lig = _molecule(rng, m, draw(st.integers(0, m)), draw(layouts), 1.5)
    regime = draw(st.sampled_from(("far", "near", "overlap")))
    if regime == "far":
        pose = lig.coords + rng.normal(size=3) * rng.choice([30.0, 300.0])
    elif regime == "near":
        pose = lig.coords + rng.normal(size=3) * 3.0
    else:
        # On top of receptor atoms: exact coincidence and sub-clamp
        # offsets both land on the MIN_DISTANCE clamp.
        pose = rec.coords[rng.integers(0, n, size=m)] + rng.choice(
            [0.0, 1e-3, 0.04], size=(m, 1)
        ) * rng.normal(size=(m, 3))
    return rec, lig, np.ascontiguousarray(pose)


class TestAgainstFrozen:
    @given(complexes(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_terms_equal_term_by_term(self, case, ddd):
        rec, lig, pose = case
        frozen = FrozenExactScorer(rec, lig).terms(
            pose, distance_dependent_dielectric=ddd
        )
        kernel = Eq1Kernel(rec, lig)
        got = kernel.terms(pose, distance_dependent_dielectric=ddd)
        assert got == frozen
        # Warm == cold: a second pass through the used buffers.
        assert kernel.terms(pose, distance_dependent_dielectric=ddd) == frozen
        bd = interaction_breakdown(
            rec, lig.with_coords(pose), distance_dependent_dielectric=ddd
        )
        assert (
            bd.electrostatic, bd.lennard_jones, bd.hydrogen_bond
        ) == frozen

    @given(complexes())
    @settings(max_examples=100, deadline=None)
    def test_scores_and_tables_keyword(self, case):
        rec, lig, pose = case
        expected = FrozenExactScorer(rec, lig).score(pose)
        scorer = ExactScorer(rec, lig)
        assert scorer.score(pose) == expected
        assert scorer.score_batch(np.stack([pose, pose]))[1] == expected
        assert score_pose_batch(rec, lig, pose[None])[0] == expected
        posed = lig.with_coords(pose)
        tables = ScoringTables.build(rec, lig)
        assert (
            interaction_breakdown(rec, posed, tables=tables)
            == interaction_breakdown(rec, posed)
        )
        no_hb = Eq1Kernel(rec, lig).terms(pose, include_hbond=False)
        assert no_hb == Eq1Kernel(rec, lig).terms(pose)[:2] + (0.0,)

    @given(complexes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_column_subsets(self, case, data):
        rec, lig, pose = case
        m = lig.n_atoms
        ex = np.array(
            sorted(
                data.draw(
                    st.sets(st.integers(0, m - 1), min_size=1, max_size=m)
                )
            )
        )
        kernel = Eq1Kernel(rec, lig)
        kernel.terms(pose)  # full-width first: the prefix views are reused
        e_el, e_lj, e_hb = kernel.terms(pose, ex)
        assert e_el + e_lj + e_hb == FrozenExactScorer(
            rec, lig
        ).column_energy(pose, ex)


@pytest.fixture(scope="module")
def paper():
    return build_complex(ComplexConfig())


class TestPaperScale:
    """2BSM scale, where NumPy's temporary elision (>= 256 KiB) decides
    the layout -- hence the summation order -- of the subset LJ product."""

    def _poses(self, built, rng):
        yield built.ligand_initial.coords
        yield built.ligand_crystal.coords
        for base in (built.ligand_initial, built.ligand_crystal):
            for scale in (0.2, 2.0):
                yield base.coords + rng.normal(size=3) * scale
        yield built.receptor.coords[:45].copy()  # deep clash

    def test_full_and_subsets_equal_frozen(self, paper):
        rec, lig = paper.receptor, paper.ligand_initial
        frozen = FrozenExactScorer(rec, lig)
        fld = FieldScorer(rec, lig)
        scorer = ExactScorer(rec, lig)
        rng = np.random.default_rng(22)
        for pose in self._poses(paper, rng):
            pose = np.ascontiguousarray(pose)
            assert scorer.score(pose) == frozen.score(pose)
            for k in (1, 5, 10, 11, 30, 45):  # both sides of 256 KiB
                ex = np.sort(rng.choice(45, size=k, replace=False))
                assert fld._exact_energy(pose, ex) == frozen.column_energy(
                    pose, ex
                )


class TestWorkspaces:
    def test_interleaved_scorers_equal_each_alone(self, small_complex, rng):
        rec = small_complex.receptor
        lig_a = small_complex.ligand_initial
        lig_b = small_complex.ligand_crystal
        poses = lig_a.coords + rng.normal(size=(6, 1, 3)) * 2.0
        alone_a = [ExactScorer(rec, lig_a).score(p) for p in poses]
        alone_b = [ExactScorer(rec, lig_b).score(p) for p in poses]
        a, b = ExactScorer(rec, lig_a), ExactScorer(rec, lig_b)
        mixed = [(a.score(p), b.score(p)) for p in poses]
        assert mixed == list(zip(alone_a, alone_b))

    def test_results_do_not_alias_a_workspace(self, small_complex, rng):
        scorer = ExactScorer(
            small_complex.receptor, small_complex.ligand_initial
        )
        poses = small_complex.ligand_initial.coords + rng.normal(
            size=(4, 1, 3)
        )
        out = scorer.score_batch(poses)
        kept = out.copy()
        kernel = scorer._kernel
        assert not np.shares_memory(out, kernel._flat)
        scorer.score(poses[0] + 5.0)
        assert np.array_equal(out, kept)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copies_score_equal_and_carry_no_scratch(
        self, small_complex, clone
    ):
        rec, lig = small_complex.receptor, small_complex.ligand_initial
        warm = ExactScorer(rec, lig)
        expected = warm.score(lig.coords)
        assert warm._kernel._flat is not None
        twin = clone(warm)
        assert twin._kernel._flat is None
        assert twin.score(lig.coords) == expected
        cold_bytes = len(pickle.dumps(ExactScorer(rec, lig)))
        assert len(pickle.dumps(warm)) == cold_bytes


class TestNonFinitePose:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nan_up_front_then_finite_equals_cold(self, small_complex, bad):
        rec, lig = small_complex.receptor, small_complex.ligand_initial
        scorer = ExactScorer(rec, lig)
        scorer.score(lig.coords)  # warm the buffers
        poisoned = lig.coords.copy()
        poisoned[1, 2] = bad
        assert np.isnan(scorer.score(poisoned))
        assert np.isnan(scorer.score_batch(poisoned[None])).all()
        assert all(np.isnan(scorer._kernel.terms(poisoned)))
        bd = interaction_breakdown(rec, lig.with_coords(poisoned))
        assert np.isnan(
            [bd.electrostatic, bd.lennard_jones, bd.hydrogen_bond]
        ).all()
        assert scorer.score(lig.coords) == ExactScorer(rec, lig).score(
            lig.coords
        )


class TestReceptorSnapshot:
    def test_receptor_mutated_after_build_does_not_move_scores(
        self, small_complex
    ):
        rec = copy.deepcopy(small_complex.receptor)
        lig = small_complex.ligand_initial
        scorer = ExactScorer(rec, lig)
        before = scorer._kernel.terms(lig.coords)
        rec.coords += 0.75  # writeable, and nobody stops the caller
        assert scorer._kernel.terms(lig.coords) == before
        # One consistent receptor per scorer: a new scorer sees the new
        # geometry in *every* term (PR 20 mixed live distances with
        # build-time H-bond angles).
        moved = ExactScorer(rec, lig)._kernel.terms(lig.coords)
        assert moved == FrozenExactScorer(rec, lig).terms(lig.coords)
        assert moved != before
