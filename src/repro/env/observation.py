"""First-class observation codecs: what the environment emits per step.

Every layer of the stack used to assume the paper's raw 16,599-float
state implicitly -- the env emitted it, the replay stored it, the agent
sized its input layer by it, the transition rings allocated shared
memory by it.  The compact fast path (static receptor prefix + dynamic
ligand tail) was first threaded through as a boolean flag.  This
module makes the contract explicit: a :class:`StateCodec` owns the
engine-to-vector encoding, and an :class:`ObservationSpec` describes it
to every consumer (dims, dtype, Q-network input width, checkpoint
identity).

Three registered modes:

``raw``
    The paper's flat state from ``engine.state_vector()`` -- receptor
    coordinates + ligand coordinates + ligand bond vectors, float64.
    Bit-identical to the pre-codec pipeline.
``compact``
    Only the dynamic ligand tail (float32, double-buffered in the
    engine); the constant receptor prefix is exposed once via
    :meth:`StateCodec.static_state` and factored out of replay
    storage.
``descriptor``
    Pocket-relative ligand features (float32, ~270 dims at paper
    scale) computed via :mod:`repro.chem.descriptors`: ligand atom
    coordinates and bond vectors in the pocket frame plus a small
    global block (COM offset, pocket/receptor distances, molecular
    descriptors).  Shrinks the Q-network input ~60x and -- because the
    receptor block is gone entirely -- is the observation that can
    span multiple complexes.

Emitted arrays from :meth:`StateCodec.encode` stay valid for exactly
one more call (codecs double-buffer so state and next_state coexist in
the trainer loop); copy to hold longer.  See docs/OBSERVATIONS.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Type

import numpy as np

#: Registered codec mode names, in registry order.
OBSERVATION_MODES: tuple[str, ...] = ("raw", "compact", "descriptor")


@dataclass(frozen=True)
class ObservationSpec:
    """The emission contract of one environment's state codec.

    Hashable and JSON-friendly (:meth:`as_dict`) so the vector env can
    assert agreement across envs and checkpoints can record codec
    identity for resume-time validation.
    """

    #: Codec mode name (one of :data:`OBSERVATION_MODES`).
    mode: str
    #: Emitted per-step state length.
    dim: int
    #: Emitted dtype name ("float64" raw, "float32" otherwise).
    dtype: str
    #: Paper-shaped full state length (``engine.state_dim()``).
    full_dim: int
    #: Constant-prefix length factored out of emission (compact mode).
    static_dim: int = 0

    @property
    def np_dtype(self) -> np.dtype:
        """The emitted dtype as a numpy dtype object."""
        return np.dtype(self.dtype)

    @property
    def q_input_dim(self) -> int:
        """Q-network input width implied by this spec.

        Compact agents reconstruct full states before the forward pass,
        so their network stays paper-shaped; descriptor agents consume
        the emitted vector directly.
        """
        return self.full_dim if self.mode == "compact" else self.dim

    def as_dict(self) -> dict:
        """Plain-JSON form (checkpoint metadata)."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ObservationSpec":
        """Rebuild from :meth:`as_dict` output (unknown keys ignored)."""
        names = {f.name for f in dataclasses.fields(ObservationSpec)}
        return ObservationSpec(
            **{k: v for k, v in data.items() if k in names}
        )


class StateCodec:
    """Engine -> state-vector encoder (one per environment).

    Subclasses set :attr:`spec` in ``__init__`` and implement
    :meth:`encode`.  The returned array may be a reused internal buffer
    that stays valid for exactly one more :meth:`encode` call.
    """

    #: Registry key; subclasses override.
    mode: str = ""

    def __init__(self, engine):
        self.engine = engine
        self.spec: ObservationSpec

    def encode(self) -> np.ndarray:
        """The current engine state in this codec's format."""
        raise NotImplementedError

    def encode_into(self, out: np.ndarray) -> None:
        """Write the current state into ``out[:spec.dim]`` in place.

        Batched rollout paths keep one (n, dim) row matrix alive and
        re-encode rows per step; writing straight into the row skips the
        intermediate buffer.  The default delegates to :meth:`encode`
        (same values, one extra copy); codecs override with a direct
        write when they can do so without changing the emitted floats.
        """
        out[: self.spec.dim] = self.encode()

    def static_state(self) -> np.ndarray | None:
        """Constant state prefix factored out of emission, if any."""
        return None


class RawCodec(StateCodec):
    """The paper's flat float64 state, bit-identical to ``state_vector``."""

    mode = "raw"

    def __init__(self, engine):
        super().__init__(engine)
        full = int(engine.state_dim())
        self.spec = ObservationSpec(
            mode="raw", dim=full, dtype="float64", full_dim=full
        )

    def encode(self) -> np.ndarray:
        return self.engine.state_vector()

    def encode_into(self, out: np.ndarray) -> None:
        # state_into performs the same per-entry casts as assigning
        # state_vector() into ``out`` would, minus the float64 staging
        # array -- bit-identical rows either way.
        self.engine.state_into(out)


class CompactCodec(StateCodec):
    """Dynamic ligand tail only (float32, engine double buffers)."""

    mode = "compact"

    def __init__(self, engine):
        super().__init__(engine)
        full = int(engine.state_dim())
        dyn = int(engine.dynamic_dim())
        self.spec = ObservationSpec(
            mode="compact",
            dim=dyn,
            dtype="float32",
            full_dim=full,
            static_dim=full - dyn,
        )

    def encode(self) -> np.ndarray:
        return self.engine.dynamic_state()

    def static_state(self) -> np.ndarray:
        return self.engine.static_state()


class DescriptorCodec(StateCodec):
    """Pocket-relative ligand features (float32, ~270 dims).

    Layout (see :func:`repro.chem.descriptors.encode_pocket_features`):
    ligand atom coordinates relative to the pocket center (3m), ligand
    bond vectors (3b), the pocket-frame global block (COM offset + its
    norm + ligand-receptor COM distance, 5), and the constant
    molecular-descriptor vector of the ligand (9).  The constant tail
    is written once; per-step encoding only touches the dynamic part.

    Two internal buffers alternate per call so state(t) and
    next_state(t) stay simultaneously valid for ``remember()``.
    """

    mode = "descriptor"

    def __init__(self, engine):
        super().__init__(engine)
        from repro.chem.descriptors import (
            N_MOLECULE_DESCRIPTORS,
            compute_descriptors,
            pocket_feature_dim,
        )

        template = engine.template
        self._bonds = template.bonds
        self._masses = np.asarray(template.masses, dtype=np.float64)
        self._total_mass = float(self._masses.sum())
        self._pocket_center = np.asarray(
            engine.built.pocket_center, dtype=np.float64
        )
        self._receptor_com = np.asarray(
            engine.receptor.center_of_mass(), dtype=np.float64
        )
        dim = pocket_feature_dim(template.n_atoms, template.n_bonds)
        tail = np.asarray(
            compute_descriptors(template).as_vector(), dtype=np.float32
        )
        self._bufs = (
            np.empty(dim, dtype=np.float32),
            np.empty(dim, dtype=np.float32),
        )
        for buf in self._bufs:
            buf[dim - N_MOLECULE_DESCRIPTORS :] = tail
        self._tail = tail
        self._flip = 0
        self.spec = ObservationSpec(
            mode="descriptor",
            dim=dim,
            dtype="float32",
            full_dim=int(engine.state_dim()),
        )

    def encode(self) -> np.ndarray:
        from repro.chem.descriptors import encode_pocket_features

        buf = self._bufs[self._flip]
        self._flip ^= 1
        encode_pocket_features(
            self.engine.ligand_coords(),
            self._bonds,
            self._masses,
            self._total_mass,
            self._pocket_center,
            self._receptor_com,
            out=buf,
        )
        return buf

    def encode_into(self, out: np.ndarray) -> None:
        if out.dtype != np.float32:
            # The emitted contract rounds every feature through float32;
            # writing float64 rows directly would skip that rounding, so
            # route wider targets through the buffered encode().
            super().encode_into(out)
            return
        from repro.chem.descriptors import encode_pocket_features

        dim = self.spec.dim
        encode_pocket_features(
            self.engine.ligand_coords(),
            self._bonds,
            self._masses,
            self._total_mass,
            self._pocket_center,
            self._receptor_com,
            out=out[:dim],
        )
        out[dim - self._tail.size : dim] = self._tail


#: Mode name -> codec class.
CODEC_REGISTRY: Dict[str, Type[StateCodec]] = {
    cls.mode: cls for cls in (RawCodec, CompactCodec, DescriptorCodec)
}


def make_codec(mode: str, engine) -> StateCodec:
    """Build the registered codec ``mode`` over ``engine``."""
    cls = CODEC_REGISTRY.get(mode)
    if cls is None:
        raise ValueError(
            f"unknown observation mode {mode!r}; "
            f"choose from {OBSERVATION_MODES}"
        )
    return cls(engine)
