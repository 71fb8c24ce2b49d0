""":class:`MetadockEngine` -- the environment core the DQN interacts with.

The engine owns a rigid receptor, a centered ligand template, and the
current :class:`~repro.metadock.pose.Pose`.  Per paper Section 3 it
exposes exactly what the RL layer needs:

- ``apply_action`` maps the discrete action set (±shift per axis,
  ±rotation per axis, and -- in the flexible extension -- ±twist per
  rotatable bond) onto pose updates;
- ``score`` evaluates Eq. 1 for the current pose (optionally via the
  cutoff cell-list path);
- ``state_vector`` flattens receptor coordinates, ligand coordinates and
  ligand bond vectors into the raw MDP state ("the internal state of
  METADOCK depicting the exact positions of ligand and receptor").

The engine knows nothing about rewards or termination: those are the RL
environment's business (:mod:`repro.env.docking_env`), mirroring how the
paper bolts game rules onto METADOCK from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.chem.builders import BuiltComplex
from repro.chem.molecule import Molecule
from repro.chem.topology import bond_vector_state, rotatable_bonds
from repro.metadock.pose import Pose, TorsionDriver, apply_pose


@dataclass(frozen=True)
class EngineObservation:
    """One engine snapshot: the raw state vector plus its score."""

    state: np.ndarray
    score: float
    ligand_coords: np.ndarray
    pose: Pose


class MetadockEngine:
    """Stateful docking engine over one receptor-ligand pair.

    Parameters
    ----------
    built:
        The complex (receptor + reference poses) from the builders.
    shift_length:
        Translation per shift action, angstrom (Table 1: the paper quotes
        1 "nanometer" per step, which at 2BSM scale is read as the unit
        step of the engine grid; configurable).
    rotation_angle_deg:
        Rotation per rotate action, degrees (Table 1: 0.5).
    n_torsions:
        Number of driven rotatable bonds (0 = rigid paper setting; 6 for
        the 2BSM flexible extension -> 18 actions).
    torsion_angle_deg:
        Twist per torsion action, degrees.
    include_receptor_in_state:
        Whether the state vector carries the (static) receptor block, as
        in the paper.  Disabling it shrinks the NN input without changing
        the MDP (the block is constant).
    scoring_method / scoring_kwargs:
        Pose-scorer selection ("exact" default and oracle, "field" the
        production kernel, "incremental" / "cutoff" the neighbour-list
        family; see :mod:`repro.scoring.scorers`) -- the engine's
        speed/accuracy dial.
    """

    def __init__(
        self,
        built: BuiltComplex,
        *,
        shift_length: float = 1.0,
        rotation_angle_deg: float = 0.5,
        n_torsions: int = 0,
        torsion_angle_deg: float = 5.0,
        include_receptor_in_state: bool = True,
        scoring_method: str = "exact",
        scoring_kwargs: dict | None = None,
    ):
        self.built = built
        self.receptor: Molecule = built.receptor
        # Center the template so pose translation == ligand centroid.
        lig = built.ligand_initial
        self.template: Molecule = lig.with_coords(
            lig.coords - lig.centroid()
        )
        self.shift_length = float(shift_length)
        self.rotation_angle = math.radians(rotation_angle_deg)
        self.torsion_angle = math.radians(torsion_angle_deg)
        self.include_receptor_in_state = bool(include_receptor_in_state)

        if n_torsions:
            rb = rotatable_bonds(
                self.template.symbols, self.template.coords, self.template.bonds
            )
            if len(rb) < n_torsions:
                raise ValueError(
                    f"ligand has {len(rb)} rotatable bonds, "
                    f"need {n_torsions}"
                )
            self.torsion_driver: TorsionDriver | None = TorsionDriver(
                self.template, rb[:n_torsions]
            )
        else:
            self.torsion_driver = None
        self.n_torsions = int(n_torsions)

        self._initial_pose = Pose(
            built.ligand_initial.centroid(),
            # identity orientation: the template *is* the initial pose.
            Pose.identity().orientation,
            (0.0,) * self.n_torsions,
        )
        from repro.scoring.scorers import make_scorer

        self.scoring_method = scoring_method
        self.scorer = make_scorer(
            scoring_method,
            self.receptor,
            self.template,
            **(scoring_kwargs or {}),
        )
        self._receptor_flat = np.ascontiguousarray(
            self.receptor.coords.reshape(-1)
        )
        # Compact-state support: the receptor block is constant for the
        # whole run, so it is exposed once (float32, read-only) while
        # per-step emission only writes the dynamic ligand tail into one
        # of two reusable buffers.  Two buffers, flipped per call, keep
        # state(t) and next_state(t) simultaneously valid for the
        # trainer's remember() -- callers holding tails longer than one
        # step must copy them.
        if self.include_receptor_in_state:
            self._static_f32 = np.ascontiguousarray(
                self._receptor_flat, dtype=np.float32
            )
        else:
            self._static_f32 = np.zeros(0, dtype=np.float32)
        self._static_f32.flags.writeable = False
        dyn = 3 * self.template.n_atoms + 3 * self.template.n_bonds
        self._dyn_bufs = (
            np.empty(dyn, dtype=np.float32),
            np.empty(dyn, dtype=np.float32),
        )
        self._dyn_flip = 0
        # Static geometry of the termination rules: the receptor is
        # rigid and the ligand's masses never change, so com_distance()
        # only weighs the current ligand coordinates.
        self._receptor_com = self.receptor.center_of_mass()
        masses = self.template.masses
        self._mass_col = masses[:, None]
        self._mass_total = masses.sum()
        self.pose: Pose = self._initial_pose
        self._coords_cache: np.ndarray | None = None
        self._score_cache: float | None = None
        self.score_evaluations = 0
        self._tracer = None
        self._metrics = None

    # -- telemetry ----------------------------------------------------------
    @property
    def tracer(self):
        """Optional :class:`repro.telemetry.spans.SpanTracer`.

        When set, fresh scorer evaluations record a "score" span (cache
        hits stay untimed, so the span count equals real evaluations).
        Scorers that time internal phases (the incremental scorer's
        "neighborlist-rebuild") receive the same tracer.
        """
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value
        if hasattr(self.scorer, "tracer"):
            self.scorer.tracer = value

    @property
    def metrics(self):
        """Optional :class:`repro.telemetry.metrics.MetricsRegistry`.

        Forwarded to scorers that publish counters/gauges (the
        incremental scorer's ``scoring/neighborlist_rebuilds`` and
        ``scoring/active_pairs``).
        """
        return self._metrics

    @metrics.setter
    def metrics(self, value) -> None:
        self._metrics = value
        if hasattr(self.scorer, "metrics"):
            self.scorer.metrics = value

    # -- action space -------------------------------------------------------
    @property
    def n_actions(self) -> int:
        """12 rigid actions plus 2 per driven torsion."""
        return 12 + 2 * self.n_torsions

    def apply_action(self, action: int) -> None:
        """Mutate the current pose by discrete action ``action``."""
        a = int(action)
        if not 0 <= a < self.n_actions:
            raise IndexError(
                f"action {a} out of range 0..{self.n_actions - 1}"
            )
        if a < 6:
            axis = a // 2
            sign = 1.0 if a % 2 == 0 else -1.0
            delta = np.zeros(3)
            delta[axis] = sign * self.shift_length
            self.pose = self.pose.translated(delta)
        elif a < 12:
            idx = a - 6
            axis = "xyz"[idx // 2]
            sign = 1.0 if idx % 2 == 0 else -1.0
            self.pose = self.pose.rotated(axis, sign * self.rotation_angle)
        else:
            idx = a - 12
            sign = 1.0 if idx % 2 == 0 else -1.0
            self.pose = self.pose.twisted(idx // 2, sign * self.torsion_angle)
        self._invalidate()

    # -- state & scoring -----------------------------------------------------
    def reset(
        self, pose: Pose | None = None, *, observe: bool = True
    ) -> EngineObservation | None:
        """Reset to the initial (or a given) pose.

        Returns the full :class:`EngineObservation` snapshot, or None
        with ``observe=False`` (the compact hot path, which skips
        building the paper-shaped state vector).
        """
        self.pose = self._initial_pose if pose is None else pose
        self._invalidate()
        return self.observe() if observe else None

    def _invalidate(self) -> None:
        self._coords_cache = None
        self._score_cache = None

    def ligand_coords(self) -> np.ndarray:
        """Current ligand coordinates under the pose (cached)."""
        if self._coords_cache is None:
            self._coords_cache = apply_pose(
                self.template, self.pose, self.torsion_driver
            )
        return self._coords_cache

    def score(self) -> float:
        """Score of the current pose under the configured scorer (cached)."""
        if self._score_cache is None:
            if self.tracer is None:
                self._score_cache = self.scorer.score(self.ligand_coords())
            else:
                with self.tracer.span("score"):
                    self._score_cache = self.scorer.score(
                        self.ligand_coords()
                    )
            self.score_evaluations += 1
        return self._score_cache

    def set_external_score(self, value: float) -> None:
        """Install a score computed outside the engine for the current pose.

        Batched rollout paths evaluate many engines' poses through one
        ``score_batch`` call and hand each engine its entry here; the
        cache and ``score_evaluations`` bookkeeping then match what a
        plain :meth:`score` call would have produced.
        """
        self._score_cache = float(value)
        self.score_evaluations += 1

    def score_pose(self, pose: Pose) -> float:
        """Score an arbitrary pose without disturbing engine state."""
        coords = apply_pose(self.template, pose, self.torsion_driver)
        self.score_evaluations += 1
        return self.scorer.score(coords)

    def score_poses(self, poses: Sequence[Pose]) -> np.ndarray:
        """Batched scoring of many poses."""
        if not poses:
            return np.empty(0)
        coords = np.stack(
            [apply_pose(self.template, p, self.torsion_driver) for p in poses]
        )
        self.score_evaluations += len(poses)
        return self.scorer.score_batch(coords)

    def state_dim(self) -> int:
        """Length of the state vector."""
        n = self.dynamic_dim()
        if self.include_receptor_in_state:
            n += self._receptor_flat.size
        return n

    def dynamic_dim(self) -> int:
        """Length of the dynamic (ligand) tail of the state vector."""
        return 3 * self.template.n_atoms + 3 * self.template.n_bonds

    def static_state(self) -> np.ndarray:
        """The constant state prefix (receptor block), float32 read-only.

        Empty when ``include_receptor_in_state`` is off -- the whole
        state is dynamic then.
        """
        return self._static_f32

    def dynamic_state(self) -> np.ndarray:
        """The dynamic state tail written into a reusable float32 buffer.

        Alternates between two internal buffers so the previous call's
        result stays valid for exactly one more call (state vs
        next_state in the trainer loop); copy to hold longer.
        """
        lig = self.ligand_coords()
        buf = self._dyn_bufs[self._dyn_flip]
        self._dyn_flip ^= 1
        n = lig.size
        buf[:n] = lig.reshape(-1)
        buf[n:] = bond_vector_state(lig, self.template.bonds)
        return buf

    def state_vector(self) -> np.ndarray:
        """The paper's raw state: positions of receptor and ligand atoms
        plus the ligand's bond vectors, flattened (fresh float64 array,
        safe to hold -- checkpoints and external consumers use this)."""
        lig = self.ligand_coords()
        out = np.empty(self.state_dim(), dtype=np.float64)
        off = 0
        if self.include_receptor_in_state:
            off = self._receptor_flat.size
            out[:off] = self._receptor_flat
        n = lig.size
        out[off : off + n] = lig.reshape(-1)
        out[off + n :] = bond_vector_state(lig, self.template.bonds)
        return out

    def state_into(self, out: np.ndarray) -> None:
        """Write the raw state vector into ``out[:state_dim()]`` in place.

        Same layout (and, entry for entry, the same casts) as assigning
        :meth:`state_vector` into ``out`` -- without materializing the
        intermediate float64 array.  ``out`` may be any float dtype and
        may be longer than ``state_dim()``; the tail is left untouched.
        """
        lig = self.ligand_coords()
        off = 0
        if self.include_receptor_in_state:
            off = self._receptor_flat.size
            out[:off] = self._receptor_flat
        n = lig.size
        out[off : off + n] = lig.reshape(-1)
        out[off + n : off + n + 3 * self.template.n_bonds] = (
            bond_vector_state(lig, self.template.bonds)
        )

    def observe(self) -> EngineObservation:
        """Snapshot of the current state/score/coordinates/pose."""
        return EngineObservation(
            state=self.state_vector(),
            score=self.score(),
            ligand_coords=self.ligand_coords().copy(),
            pose=self.pose,
        )

    # -- geometry helpers used by the termination rules ----------------------
    def com_distance(self) -> float:
        """Distance between ligand and receptor centers of mass.

        The same formula and operand order as
        :meth:`Molecule.center_of_mass` on both sides (bit-identical),
        with everything that does not depend on the pose cached.
        """
        lig_com = (
            self.ligand_coords() * self._mass_col
        ).sum(axis=0) / self._mass_total
        return float(np.linalg.norm(lig_com - self._receptor_com))

    def initial_com_distance(self) -> float:
        """COM distance at the canonical initial pose."""
        return self.built.initial_com_distance

    def crystal_rmsd(self) -> float:
        """Plain RMSD between current ligand and the crystallographic pose."""
        diff = self.ligand_coords() - self.built.ligand_crystal.coords
        return float(np.sqrt((diff**2).sum(axis=-1).mean()))
