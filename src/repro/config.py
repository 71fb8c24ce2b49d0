"""Configuration dataclasses for DQN-Docking.

:class:`DQNDockingConfig` defaults reproduce **Table 1** of the paper
exactly (both the RL and DL hyperparameter blocks).  :class:`ComplexConfig`
describes the synthetic 2BSM-scale receptor-ligand complex used in place of
the wwPDB crystal structure (see DESIGN.md, substitution table).

Two presets are provided:

- :data:`PAPER_CONFIG` -- the full-scale run of Section 4 (1,800 episodes,
  3,264-atom receptor, 45-atom ligand, compact replay).  Hours of CPU
  time.
- :func:`ci_scale_config` -- a reduced preset with the same structure used
  by tests, benches and the quickstart example; runs in seconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any


#: Algorithmic variants of the agent: "dqn" (paper), "ddqn", "dueling",
#: "dueling-ddqn", "distributional" (C51), or "rainbow" (double +
#: dueling + prioritized + 3-step) -- the Section 5 future-work list.
VARIANTS: tuple[str, ...] = (
    "dqn", "ddqn", "dueling", "dueling-ddqn", "distributional", "rainbow",
)


@dataclass(frozen=True)
class ComplexConfig:
    """Parameters of the synthetic receptor-ligand complex.

    The defaults mirror the 2BSM pair used in the paper: a 3,264-atom
    receptor (described in Section 5 as "relatively small") and a
    45-atom ligand (Table 1 derives the hidden-layer width as
    ``45 x 3`` ligand coordinates).
    """

    receptor_atoms: int = 3264
    ligand_atoms: int = 45
    #: Approximate receptor radius in angstroms.
    receptor_radius: float = 22.0
    #: Depth of the concave binding pocket carved into the receptor surface.
    pocket_depth: float = 6.0
    #: Aperture half-angle of the pocket cone, radians.
    pocket_aperture: float = 0.55
    #: Initial ligand displacement from the pocket mouth along the pocket axis.
    initial_offset: float = 14.0
    #: Number of rotatable bonds assigned to the ligand (2BSM ligand folds
    #: in 6 bonds per Section 5).
    rotatable_bonds: int = 6
    seed: int = 2018

    def __post_init__(self) -> None:
        if self.receptor_atoms < 8:
            raise ValueError("receptor needs at least 8 atoms")
        if self.ligand_atoms < 2:
            raise ValueError("ligand needs at least 2 atoms")
        if self.pocket_depth < 0:
            raise ValueError("pocket_depth must be non-negative")
        if self.rotatable_bonds < 0:
            raise ValueError("rotatable_bonds must be non-negative")
        # The builder grows at most ligand_atoms - 1 heavy atoms and
        # needs rotatable_bonds + 3 of them to place that many rotatable
        # bonds.
        needed = self.rotatable_bonds + 4
        if self.rotatable_bonds and self.ligand_atoms < needed:
            raise ValueError(
                f"a ligand of {self.ligand_atoms} atoms cannot carry "
                f"{self.rotatable_bonds} rotatable bonds (needs at least "
                f"{needed} atoms)"
            )


@dataclass(frozen=True)
class DQNDockingConfig:
    """All hyperparameters of Table 1 plus environment/engine knobs.

    Field defaults are the paper's values verbatim; the benches assert this
    correspondence (``benchmarks/test_bench_table1.py``).
    """

    # --- RL hyperparameters (Table 1, upper block) -----------------------
    #: Number of episodes to be completed along the simulation.
    episodes: int = 1800
    #: Maximum time-steps limit per episode.
    max_steps_per_episode: int = 1000
    #: Real numbers needed to represent a particular state (2BSM).
    state_space: int = 16599
    #: Possible actions to be taken by the agent.
    action_space: int = 12
    #: Distance traveled by the ligand in each shifting step (paper: 1 nm).
    shift_length: float = 1.0
    #: Degrees turned by the ligand in each rotating step.
    rotation_angle_deg: float = 0.5
    #: Initial steps where the agent only takes random actions to explore.
    initial_exploration_steps: int = 20000
    #: Initial epsilon (1.0 = fully random at start of training).
    epsilon_start: float = 1.0
    #: Final epsilon after annealing.
    epsilon_final: float = 0.05
    #: Linear decrease of epsilon per time-step.
    epsilon_decay: float = 4.5e-5
    #: Discount rate for future rewards.
    gamma: float = 0.99
    #: Experience-replay memory capacity.
    replay_capacity: int = 400000
    #: Steps of pure random action before learning starts.
    learning_start: int = 10000
    #: Frequency (steps) at which the target network is updated.
    target_update_steps: int = 1000

    # --- DL hyperparameters (Table 1, lower block) ------------------------
    #: Hidden layers between input and output.
    hidden_layers: int = 2
    #: Hidden-layer width: 45 ligand atoms x 3 coordinates.
    hidden_size: int = 135
    #: Activation for hidden units.
    activation: str = "relu"
    #: Optimizer update rule.
    update_rule: str = "rmsprop"
    #: Optimizer learning rate.
    learning_rate: float = 0.00025
    #: Training examples per gradient update.
    minibatch_size: int = 32

    # --- Environment rules (Section 3) ------------------------------------
    #: Movement-area factor: episode ends if the ligand center of mass
    #: travels beyond ``escape_factor`` x the initial receptor-ligand
    #: center-of-mass distance ("an additional third" -> 4/3).
    escape_factor: float = 4.0 / 3.0
    #: Consecutive low-score steps that terminate the episode.
    low_score_patience: int = 20
    #: Score threshold for the low-score termination rule.
    low_score_threshold: float = -100000.0

    # --- Engine / reproduction knobs (not in Table 1) ----------------------
    #: Algorithmic variant, one of :data:`VARIANTS`.
    variant: str = "dqn"
    #: Use the 18-action flexible-ligand environment (Section 5 future work).
    flexible_ligand: bool = False
    #: Environment communication layer: "ram" or "file" (the paper used
    #: on-disk files; limitation #1 of Section 5).
    comm_mode: str = "ram"
    #: Observation codec emitted by the environment: "raw" (the paper's
    #: flat 16,599-dim float64 state, bit-identical to pre-codec
    #: behaviour), "compact" (the env emits only the dynamic ligand
    #: tail in float32, the replay stores the constant receptor block
    #: once and the agent reconstructs full states on demand -- see
    #: docs/PERFORMANCE.md), or "descriptor" (pocket-relative ligand
    #: features, ~270 dims; see :mod:`repro.env.observation` and
    #: docs/OBSERVATIONS.md).
    observation_mode: str = "raw"
    #: Pose-scoring kernel: "exact" (full Eq. 1, the correctness
    #: reference), "incremental" (Verlet-list scorer, see
    #: :mod:`repro.scoring.incremental`), "cutoff" (the same scorer with
    #: no skin: each moved pose re-queries its cutoff pairs) or
    #: "field" (hybrid precomputed-field scorer with an exact
    #: near-field path, see :mod:`repro.scoring.field` and
    #: docs/PERFORMANCE.md).
    scoring_method: str = "exact"
    #: Extra keyword arguments forwarded to the scorer constructor
    #: (e.g. ``{"cutoff": 12.0, "skin": 3.0}`` for "incremental").
    scoring_kwargs: dict = field(default_factory=dict)
    #: Steps between agent training updates (1 = update every step).
    train_interval: int = 1
    #: Training runtime: "sync" (one process; the sequential trainer for
    #: figure4, the vector trainer for curriculum) or "actor-learner"
    #: (N actor processes feed a learner process through shared-memory
    #: transition rings; see :mod:`repro.rl.distributed` and
    #: docs/PARALLELISM.md).
    trainer: str = "sync"
    #: Actor processes under ``trainer="actor-learner"``.
    num_actors: int = 2
    #: Actors refresh their Q-net sidecar every this many *local* steps
    #: (so the learner broadcasts every ``num_actors * actor_sync_every``
    #: global transitions).
    actor_sync_every: int = 50
    #: Per-actor transition-ring capacity (slots); a full ring
    #: backpressures its actor.
    actor_ring_capacity: int = 256
    #: Loss used for the Bellman residual ("mse" per the paper's Eq.;
    #: "huber" is the DQN-Nature practical choice, offered as an option).
    loss: str = "mse"
    seed: int = 0
    complex: ComplexConfig = field(default_factory=ComplexConfig)

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        if self.max_steps_per_episode <= 0:
            raise ValueError("max_steps_per_episode must be positive")
        if not 0.0 <= self.epsilon_final <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_final <= epsilon_start <= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.replay_capacity < self.minibatch_size:
            raise ValueError("replay capacity smaller than a minibatch")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.comm_mode not in {"ram", "file"}:
            raise ValueError(f"unknown comm_mode {self.comm_mode!r}")
        # Literal set (not repro.env.observation.OBSERVATION_MODES) to
        # avoid a config -> env import cycle; an observation test
        # asserts the two stay in sync.
        if self.observation_mode not in {"raw", "compact", "descriptor"}:
            raise ValueError(
                f"unknown observation_mode {self.observation_mode!r}"
            )
        # Validate scoring_method / scoring_kwargs against the scorer
        # registry so an unknown method or a typo fails here rather
        # than deep inside a worker.  Deferred import:
        # DQNDockingConfig is bound before module-level PAPER_CONFIG
        # instantiates, so the cycle resolves; guard anyway.
        try:
            from repro.scoring.scorers import validate_scoring_kwargs
        except ImportError:  # pragma: no cover - partial installs
            pass
        else:
            validate_scoring_kwargs(self.scoring_method, self.scoring_kwargs)
        if self.trainer not in {"sync", "actor-learner"}:
            raise ValueError(f"unknown trainer {self.trainer!r}")
        if self.num_actors < 1:
            raise ValueError("num_actors must be >= 1")
        if self.actor_sync_every < 1:
            raise ValueError("actor_sync_every must be >= 1")
        if self.actor_ring_capacity < 1:
            raise ValueError("actor_ring_capacity must be >= 1")
        if self.loss not in {"mse", "huber"}:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.activation not in {"relu", "tanh", "sigmoid", "linear"}:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.update_rule not in {"rmsprop", "adam", "sgd"}:
            raise ValueError(f"unknown update_rule {self.update_rule!r}")

    @property
    def n_actions(self) -> int:
        """Action count implied by the environment flavour."""
        if self.flexible_ligand:
            return self.action_space + 2 * self.complex.rotatable_bonds
        return self.action_space

    def replace(self, **changes: Any) -> "DQNDockingConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass helper)."""
        return dataclasses.replace(self, **changes)

    def table1_rows(self) -> list[tuple[str, str, str]]:
        """Render the config as (hyperparameter, value, description) rows
        in the order of the paper's Table 1."""
        return [
            ("Number of episodes M", f"{self.episodes:,}",
             "Number of episodes to be completed along the simulation"),
            ("Maximum time-steps limit T", f"{self.max_steps_per_episode:,}",
             "Maximum time-steps limit per episode"),
            ("State space", f"{self.state_space:,}",
             "Real numbers needed to represent a particular state"),
            ("Action space", f"{self.action_space}",
             "Possible actions to be taken by the agent"),
            ("Shifting length per step", f"{self.shift_length:g}",
             "Distance traveled by the ligand in each step when shifting"),
            ("Rotating angle per step", f"{self.rotation_angle_deg:g}",
             "Degrees turned by the ligand in each step when rotating"),
            ("Initial exploration steps", f"{self.initial_exploration_steps:,}",
             "Initial steps of purely random exploration"),
            ("epsilon initial value", f"{self.epsilon_start:g}",
             "Initial value of epsilon"),
            ("epsilon final value", f"{self.epsilon_final:g}",
             "Final value of epsilon"),
            ("epsilon decay", f"{self.epsilon_decay:g}",
             "Decrease rate of epsilon per time-step"),
            ("gamma discount rate", f"{self.gamma:g}",
             "Discount rate for future rewards"),
            ("Experience replay pool size N", f"{self.replay_capacity:,}",
             "Stored transition memories for experience replay"),
            ("Learning start", f"{self.learning_start:,}",
             "Initial steps before gradient updates begin"),
            ("Steps C to update target network", f"{self.target_update_steps:,}",
             "Frequency at which the target network is updated"),
            ("Number of hidden layers", f"{self.hidden_layers}",
             "Hidden layers between input and output"),
            ("Hidden layer size", f"{self.hidden_size}",
             "45 x 3 atoms of the ligand"),
            ("Activation function", self.activation.upper()
             if self.activation == "relu" else self.activation,
             "Hidden-unit activation"),
            ("Update rule", "RMSprop" if self.update_rule == "rmsprop"
             else self.update_rule, "Optimizer parameter update rule"),
            ("Learning rate", f"{self.learning_rate:g}",
             "Learning rate used by the optimizer"),
            ("Minibatch size", f"{self.minibatch_size}",
             "Training examples per update"),
        ]


def recorded_observation_mode(data: dict) -> str | None:
    """The observation codec a recorded config dict names, if any.

    The one place legacy input is upgraded: configs archived before
    ``observation_mode`` was the only spelling carry a
    ``compact_states`` boolean, which meant "compact".
    """
    mode = data.get("observation_mode")
    if data.get("compact_states") and mode in (None, "raw"):
        return "compact"
    return mode


#: The exact configuration of the paper's Section 4 experiment.  Every
#: Table 1 value is the dataclass default; the observation codec is
#: "compact" because the paper's 400,000-transition replay of dense
#: 10,059-wide states would need ~32 GB, while the compact replay stores
#: the constant receptor block once (~0.4 GB) and feeds the Q-network
#: the same full-width states.
PAPER_CONFIG = DQNDockingConfig(observation_mode="compact")


def ci_scale_config(
    episodes: int = 40,
    seed: int = 0,
    *,
    receptor_atoms: int = 96,
    ligand_atoms: int = 8,
    max_steps: int = 60,
    **overrides: Any,
) -> DQNDockingConfig:
    """A reduced-scale config preserving the paper's structure.

    The ratios that matter for the learning dynamics are kept: hidden size
    = 3 x ligand atoms, learning starts after a short random-action phase,
    the target network updates several times per run, and epsilon anneals
    over roughly half the total steps.
    """
    complex_cfg = ComplexConfig(
        receptor_atoms=receptor_atoms,
        ligand_atoms=ligand_atoms,
        receptor_radius=9.0,
        pocket_depth=3.5,
        initial_offset=7.0,
        rotatable_bonds=2,
        seed=seed + 2018,
    )
    total_steps = episodes * max_steps
    defaults: dict[str, Any] = dict(
        episodes=episodes,
        max_steps_per_episode=max_steps,
        state_space=0,  # resolved from the built complex by the env
        shift_length=0.8,
        rotation_angle_deg=5.0,
        initial_exploration_steps=max(2 * max_steps, total_steps // 20),
        epsilon_decay=1.0 / max(1, total_steps // 2),
        replay_capacity=max(4096, total_steps),
        learning_start=max(2 * max_steps, total_steps // 20),
        target_update_steps=max(50, total_steps // 40),
        hidden_size=3 * ligand_atoms,
        seed=seed,
        complex=complex_cfg,
    )
    defaults.update(overrides)
    return DQNDockingConfig(**defaults)
