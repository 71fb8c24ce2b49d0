"""Hypothesis strategies over the repository's generated inputs."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.config import ComplexConfig


@st.composite
def complex_configs(draw) -> ComplexConfig:
    """Synthetic complexes around the shared test complex's geometry.

    Receptor and ligand size, rotatable-bond count, pocket depth and
    seed vary; radius, aperture and offset stay at the shared fixture's
    values.  Rotatable bonds are capped at a third of the ligand's atoms,
    the most a grown ligand of that size reliably carries, and at the
    ``ligand_atoms - 4`` that :class:`ComplexConfig` accepts.
    """
    ligand_atoms = draw(st.integers(2, 45))
    max_rotatable = min(6, ligand_atoms // 3, max(0, ligand_atoms - 4))
    return ComplexConfig(
        receptor_atoms=draw(st.integers(8, 500)),
        ligand_atoms=ligand_atoms,
        receptor_radius=9.0,
        pocket_depth=draw(st.floats(0.0, 8.0)),
        pocket_aperture=0.55,
        initial_offset=7.0,
        rotatable_bonds=draw(st.integers(0, max_rotatable)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
