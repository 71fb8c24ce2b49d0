"""Synthetic complex builders: the 2BSM stand-in contract."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.chem.builders import (
    POCKET_AXIS,
    _in_pocket,
    build_complex,
    build_ligand,
    build_receptor,
)
from repro.chem.topology import rotatable_bonds
from repro.config import ComplexConfig
from repro.scoring.composite import interaction_score

from tests.conftest import SMALL_COMPLEX_CFG
from tests.strategies import complex_configs
from tests.validate import (
    connected_components,
    validate_complex,
    validate_molecule,
)


class TestBuildReceptor:
    def test_exact_atom_count(self, small_complex):
        assert small_complex.receptor.n_atoms == SMALL_COMPLEX_CFG.receptor_atoms

    def test_deterministic(self):
        a = build_receptor(SMALL_COMPLEX_CFG)
        b = build_receptor(SMALL_COMPLEX_CFG)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert a.symbols == b.symbols

    def test_seed_changes_geometry(self):
        import dataclasses

        other = build_receptor(
            dataclasses.replace(SMALL_COMPLEX_CFG, seed=999)
        )
        base = build_receptor(SMALL_COMPLEX_CFG)
        assert not np.array_equal(other.coords, base.coords)

    def test_pocket_region_empty(self, small_complex):
        # No receptor atom may sit strictly inside the carved cone
        # (tolerance: lining atoms sit within one shell of the boundary).
        cfg = SMALL_COMPLEX_CFG
        import dataclasses

        inner = dataclasses.replace(
            cfg,
            pocket_aperture=cfg.pocket_aperture - 0.25,
            pocket_depth=cfg.pocket_depth - 2.0,
        )
        inside = _in_pocket(small_complex.receptor.coords, inner)
        assert not inside.any()

    def test_roughly_neutral(self, small_complex):
        assert abs(small_complex.receptor.charges.sum()) < 1.0

    def test_lining_is_negative_acceptors(self, small_complex):
        rec = small_complex.receptor
        lining = rec.charges <= -0.35
        assert lining.sum() >= 5
        assert rec.hbond_acceptor[lining].all()

    def test_has_positive_surface_sites(self, small_complex):
        # The "two positives repel" failure mode needs positive receptor
        # sites somewhere on the surface.
        assert (small_complex.receptor.charges >= 0.4).any()

    @settings(max_examples=25, deadline=None)
    @given(cfg=complex_configs())
    def test_molecule_validates(self, cfg):
        report = validate_molecule(build_receptor(cfg))
        assert report.ok, (cfg, report.errors)


class TestBuildLigand:
    def test_exact_atom_count(self, small_complex):
        assert small_complex.ligand_crystal.n_atoms == SMALL_COMPLEX_CFG.ligand_atoms

    def test_connected(self, small_complex):
        lig = small_complex.ligand_crystal
        comps = connected_components(lig.n_atoms, lig.bonds)
        assert len(comps) == 1

    def test_rotatable_bond_requirement(self, small_complex):
        lig = small_complex.ligand_crystal
        rb = rotatable_bonds(lig.symbols, lig.coords, lig.bonds)
        assert len(rb) >= SMALL_COMPLEX_CFG.rotatable_bonds

    def test_net_positive(self, small_complex):
        assert small_complex.ligand_crystal.charges.sum() > 0.5

    def test_deterministic(self):
        a = build_ligand(SMALL_COMPLEX_CFG)
        b = build_ligand(SMALL_COMPLEX_CFG)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_many_seeds_never_fail(self):
        import dataclasses

        for seed in range(10):
            cfg = dataclasses.replace(SMALL_COMPLEX_CFG, seed=seed * 31 + 1)
            lig = build_ligand(cfg)
            assert lig.n_atoms == cfg.ligand_atoms

    @settings(max_examples=25, deadline=None)
    @given(cfg=complex_configs())
    def test_validates(self, cfg):
        report = validate_molecule(build_ligand(cfg))
        assert report.ok, (cfg, report.errors)


class TestBuildComplex:
    @settings(max_examples=25, deadline=None)
    @given(cfg=complex_configs())
    def test_validated(self, cfg):
        report = validate_complex(build_complex(cfg))
        assert report.ok, (cfg, report.errors)

    def test_crystal_outscores_initial(self, small_complex):
        s_crystal = interaction_score(
            small_complex.receptor, small_complex.ligand_crystal
        )
        s_initial = interaction_score(
            small_complex.receptor, small_complex.ligand_initial
        )
        assert s_crystal > s_initial

    def test_crystal_score_in_paper_ballpark(self, small_complex):
        # Paper: "500 at most".  Good poses land in the hundreds.
        s = interaction_score(
            small_complex.receptor, small_complex.ligand_crystal
        )
        assert 10.0 < s < 2000.0

    def test_deep_overlap_catastrophic(self, small_complex):
        # The paper's -100,000 threshold must be reachable by penetration.
        deep = small_complex.ligand_crystal.translated(
            -POCKET_AXIS * SMALL_COMPLEX_CFG.receptor_radius
        )
        assert interaction_score(small_complex.receptor, deep) < -100000.0

    def test_initial_on_pocket_axis(self, small_complex):
        c = small_complex.ligand_initial.centroid()
        axis_component = float(c @ POCKET_AXIS)
        transverse = np.linalg.norm(c - axis_component * POCKET_AXIS)
        assert axis_component > SMALL_COMPLEX_CFG.receptor_radius
        assert transverse < 1.0

    def test_initial_com_distance_positive(self, small_complex):
        d = small_complex.initial_com_distance
        assert d > SMALL_COMPLEX_CFG.receptor_radius

    def test_ligand_poses_same_molecule(self, small_complex):
        a = small_complex.ligand_crystal
        b = small_complex.ligand_initial
        assert a.symbols == b.symbols
        np.testing.assert_array_equal(a.bonds, b.bonds)
        # Same internal geometry (rigid): centered coords match.
        ca = a.coords - a.centroid()
        cb = b.coords - b.centroid()
        np.testing.assert_allclose(ca, cb, atol=1e-9)

    def test_paper_scale_counts(self):
        cfg = ComplexConfig()  # defaults = 2BSM scale
        assert cfg.receptor_atoms == 3264
        assert cfg.ligand_atoms == 45
