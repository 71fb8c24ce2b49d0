"""Shared fixtures: one small deterministic complex reused across tests.

Building a complex costs ~100ms at test scale; session scope keeps the
suite fast.  Tests must not mutate the fixture molecules -- ones that
need mutation copy first.
"""

from __future__ import annotations

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


@pytest.fixture(scope="session")
def small_complex() -> BuiltComplex:
    """A 120+10 atom complex shared by the whole suite (do not mutate)."""
    return build_complex(SMALL_COMPLEX_CFG)


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
