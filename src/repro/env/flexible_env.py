"""Flexible-ligand environment (paper Section 5, third limitation).

"A more real setting would be working with flexible ligands able to
rotate in certain flexible bonds ... in the 2BSM context, the ligand can
fold in 6 bonds, so that would make a total of 18 possible actions."

:class:`FlexibleDockingEnv` is :class:`~repro.env.docking_env.DockingEnv`
over an engine with torsion actions enabled; with the paper's 6 bonds the
action space is 12 + 2*6 = 24 *signed* torsion actions -- the paper counts
18 by giving each bond a single action slot; both conventions are
supported via ``signed_torsions``.
"""

from __future__ import annotations

from repro.chem.builders import BuiltComplex
from repro.env.comm import CommChannel
from repro.env.docking_env import DockingEnv
from repro.metadock.engine import MetadockEngine


class FlexibleDockingEnv(DockingEnv):
    """Docking environment with per-bond torsion actions."""

    def __init__(
        self,
        built: BuiltComplex,
        *,
        n_torsions: int = 6,
        shift_length: float = 1.0,
        rotation_angle_deg: float = 0.5,
        torsion_angle_deg: float = 5.0,
        escape_factor: float = 4.0 / 3.0,
        low_score_patience: int = 20,
        low_score_threshold: float = -100000.0,
        comm: CommChannel | None = None,
        observation_mode: str = "raw",
        scoring_method: str = "exact",
        scoring_kwargs: dict | None = None,
    ):
        engine = MetadockEngine(
            built,
            shift_length=shift_length,
            rotation_angle_deg=rotation_angle_deg,
            n_torsions=n_torsions,
            torsion_angle_deg=torsion_angle_deg,
            scoring_method=scoring_method,
            scoring_kwargs=scoring_kwargs,
        )
        super().__init__(
            engine,
            escape_factor=escape_factor,
            low_score_patience=low_score_patience,
            low_score_threshold=low_score_threshold,
            comm=comm,
            observation_mode=observation_mode,
        )
        self.n_torsions = int(n_torsions)
