"""Environment factories: ``make_env`` and ``make_vector_env``.

:func:`make_env` is the one way to build a single docking environment
from a run config -- rigid or flexible via ``kind=``, observation codec
via ``cfg.observation_mode``.

:func:`make_vector_env` is the one way to build a
:class:`~repro.env.vectorized.SyncVectorEnv`, the lockstep env that
:class:`repro.rl.vector_trainer.VectorTrainer` drives.  Two
construction modes:

- **from a config** -- ``make_vector_env(cfg, n_envs=4)`` builds N
  docking environments over the config's complex (built once, shared);
  pass ``builts=[...]`` to train over distinct complexes (the
  multi-complex curriculum);
- **from thunks** -- ``make_vector_env(env_fns=[...])`` wraps
  arbitrary zero-arg environment constructors (tests, custom stacks).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.env.vectorized import SyncVectorEnv

#: Recognized environment kinds for :func:`make_env`.
ENV_KINDS = ("rigid", "flexible")


def make_env(
    cfg,
    built=None,
    *,
    kind: str | None = None,
    comm=None,
):
    """Build the full stack (complex -> engine -> env) from a run config.

    Parameters
    ----------
    cfg:
        A :class:`repro.config.DQNDockingConfig`.
    built:
        An already-constructed :class:`~repro.chem.builders.BuiltComplex`
        to reuse (the expensive part at paper scale); built from
        ``cfg.complex`` when omitted.
    kind:
        "rigid" (translation/rotation actions only), "flexible"
        (adds per-bond torsion actions,
        :class:`~repro.env.flexible_env.FlexibleDockingEnv`), or None
        to derive from ``cfg.flexible_ligand``.
    comm:
        Engine<->agent communication channel; defaults to
        ``make_comm(cfg.comm_mode)``.
    """
    from repro.chem.builders import build_complex
    from repro.env.comm import make_comm
    from repro.env.docking_env import DockingEnv
    from repro.env.flexible_env import FlexibleDockingEnv
    from repro.metadock.engine import MetadockEngine

    if kind is None:
        kind = "flexible" if cfg.flexible_ligand else "rigid"
    if kind not in ENV_KINDS:
        raise ValueError(
            f"unknown env kind {kind!r}; choose from {ENV_KINDS}"
        )
    if built is None:
        built = build_complex(cfg.complex)
    if comm is None:
        comm = make_comm(cfg.comm_mode)
    mode = cfg.observation_mode

    if kind == "flexible":
        return FlexibleDockingEnv(
            built,
            n_torsions=cfg.complex.rotatable_bonds,
            shift_length=cfg.shift_length,
            rotation_angle_deg=cfg.rotation_angle_deg,
            escape_factor=cfg.escape_factor,
            low_score_patience=cfg.low_score_patience,
            low_score_threshold=cfg.low_score_threshold,
            comm=comm,
            observation_mode=mode,
            scoring_method=cfg.scoring_method,
            scoring_kwargs=dict(cfg.scoring_kwargs),
        )
    engine = MetadockEngine(
        built,
        shift_length=cfg.shift_length,
        rotation_angle_deg=cfg.rotation_angle_deg,
        n_torsions=0,
        scoring_method=cfg.scoring_method,
        scoring_kwargs=dict(cfg.scoring_kwargs),
    )
    return DockingEnv(
        engine,
        escape_factor=cfg.escape_factor,
        low_score_patience=cfg.low_score_patience,
        low_score_threshold=cfg.low_score_threshold,
        comm=comm,
        observation_mode=mode,
    )


def make_vector_env(
    cfg=None,
    *,
    env_fns: Sequence[Callable[[], Any]] | None = None,
    n_envs: int = 1,
    builts: Sequence[Any] | None = None,
    tracer=None,
) -> SyncVectorEnv:
    """Build a :class:`SyncVectorEnv` from a config or explicit env thunks.

    Parameters
    ----------
    cfg:
        A :class:`repro.config.DQNDockingConfig`; ignored when
        ``env_fns`` is given, required otherwise.
    env_fns:
        Explicit zero-arg environment constructors (overrides
        cfg-based construction; ``n_envs`` is then ``len(env_fns)``).
    n_envs:
        Number of environments to build from ``cfg``.
    builts:
        Pre-built complexes (one per env) for cfg-based construction;
        defaults to building the config's complex once and sharing it.
    tracer:
        Optional span tracer; the env records a "vector-step" span per
        batch step.
    """
    if env_fns is None:
        if cfg is None:
            raise ValueError("need either a config or env_fns")
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        from repro.chem.builders import build_complex

        if builts is None:
            built = build_complex(cfg.complex)
            builts = [built] * n_envs
        else:
            builts = list(builts)
            if n_envs not in (1, len(builts)):
                raise ValueError(
                    f"got {len(builts)} built complexes for n_envs={n_envs}"
                )
        if cfg.observation_mode == "compact":
            # Compact replay factors out ONE constant receptor prefix;
            # distinct complexes have distinct prefixes, so the
            # multi-complex curriculum must use the dense pipeline
            # (or the receptor-free "descriptor" codec).
            if len({id(b) for b in builts}) > 1:
                raise ValueError(
                    "observation_mode='compact' requires a single "
                    "shared complex: distinct built complexes have "
                    "distinct static state prefixes (use 'raw' or "
                    "'descriptor' for multi-complex curricula)"
                )
        env_fns = [(lambda b=b: make_env(cfg, b)) for b in builts]
    return SyncVectorEnv(list(env_fns), tracer=tracer)
