"""Shared fixtures: one small deterministic complex reused across tests.

Building a complex costs ~100ms at test scale; session scope keeps the
suite fast.  Tests must not mutate the fixture molecules -- ones that
need mutation copy first.

The on-disk field-map cache (``$XDG_CACHE_HOME/repro/field-maps``) is
pointed at a session temp dir, so the suite never reads or writes the
user's cache; tests that assert a cold build take :func:`cold_map_cache`
for a fresh, empty one, or :func:`fresh_map_cache` for one per build.
"""

from __future__ import annotations

import dataclasses
import itertools
import os

import numpy as np
import pytest

from repro.chem.builders import BuiltComplex, build_complex
from repro.config import ComplexConfig, ci_scale_config
from repro.env.docking_env import DockingEnv
from repro.metadock.engine import MetadockEngine


SMALL_COMPLEX_CFG = ComplexConfig(
    receptor_atoms=120,
    ligand_atoms=10,
    receptor_radius=9.0,
    pocket_depth=3.5,
    pocket_aperture=0.55,
    initial_offset=7.0,
    rotatable_bonds=2,
    seed=2018,
)


@pytest.fixture(scope="session", autouse=True)
def _session_map_cache(tmp_path_factory):
    """Field-map cache of the whole session (session-scoped, so
    Hypothesis tests may run under it)."""
    before = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if before is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = before


@pytest.fixture()
def fresh_map_cache(tmp_path, monkeypatch):
    """Call it to point the field-map cache at a new, empty directory,
    so the next map build is cold; each call returns the new root."""
    count = itertools.count()

    def fresh():
        base = tmp_path / f"xdg-cache-{next(count)}"
        monkeypatch.setenv("XDG_CACHE_HOME", str(base))
        return base / "repro" / "field-maps"

    return fresh


@pytest.fixture()
def cold_map_cache(fresh_map_cache):
    """A fresh, empty field-map cache for one test; returns its root."""
    return fresh_map_cache()


def with_random_bonds(mol, seed: int, per_atom: float = 1.0):
    """``mol`` with random bonds (``tests/test_scoring_exact_kernel.py``'s
    scheme): its H-bond atoms get outward directions, the anisotropic
    Eq. 1 path that no builder's receptor reaches."""
    rng = np.random.default_rng(seed)
    n = mol.n_atoms
    k = int(per_atom * n)
    i = rng.integers(0, n, size=k)
    j = (i + rng.integers(1, n, size=k)) % n
    return dataclasses.replace(mol, bonds=np.stack([i, j], axis=1))


@pytest.fixture(scope="session")
def small_complex() -> BuiltComplex:
    """A 120+10 atom complex shared by the whole suite (do not mutate)."""
    return build_complex(SMALL_COMPLEX_CFG)


@pytest.fixture(scope="session")
def bonded_complex(small_complex) -> BuiltComplex:
    """``small_complex`` with random receptor bonds: some H-bond atoms
    have directions and some (unbonded) stay isotropic."""
    rec = with_random_bonds(small_complex.receptor, seed=7, per_atom=0.5)
    return dataclasses.replace(small_complex, receptor=rec)


@pytest.fixture()
def engine(small_complex) -> MetadockEngine:
    """A fresh rigid engine over the shared complex."""
    return MetadockEngine(
        small_complex, shift_length=0.8, rotation_angle_deg=5.0
    )


@pytest.fixture()
def flex_engine(small_complex) -> MetadockEngine:
    """A fresh flexible engine (2 torsions) over the shared complex."""
    return MetadockEngine(
        small_complex,
        shift_length=0.8,
        rotation_angle_deg=5.0,
        n_torsions=2,
    )


@pytest.fixture()
def env(engine) -> DockingEnv:
    """A docking environment over the fresh engine."""
    return DockingEnv(engine)


@pytest.fixture()
def tiny_run_config():
    """A config for very fast end-to-end training tests."""
    return ci_scale_config(episodes=6, seed=0, max_steps=25)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Per-test deterministic generator."""
    return np.random.default_rng(12345)
