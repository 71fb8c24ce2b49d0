""":class:`DockingEnv` -- the MDP of paper Section 3.

Reward (Section 3, verbatim rules):

1. the raw quantity is the *change* in METADOCK's score, not the score;
2. clipped to [-1, 1];
3. positive -> +1, negative -> -1, unchanged -> 0.

Net effect: ``reward = sign(score_t+1 - score_t)``.

Termination (the added "game rules"):

- **escape** -- ligand center of mass farther than ``escape_factor``
  (4/3) times the initial receptor-ligand COM distance;
- **deep-penetration** -- ``low_score_patience`` (20) consecutive steps
  with score below ``low_score_threshold`` (-100,000);
- the T-step cap is the trainer's job (or the TimeLimit wrapper's).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.env.comm import CommChannel, RamComm
from repro.env.observation import ObservationSpec, make_codec
from repro.env.spaces import Box, Discrete
from repro.metadock.engine import MetadockEngine
from repro.metadock.pose import Pose


class DockingEnv:
    """Gym-flavoured environment over a :class:`MetadockEngine`.

    What the env emits per step is owned by a
    :class:`~repro.env.observation.StateCodec` selected via
    ``observation_mode`` ("raw", "compact", or "descriptor"; see
    docs/OBSERVATIONS.md).  :attr:`observation_spec` describes the
    emission contract (dims, dtype, Q-input width) to every consumer.
    In ``"compact"`` mode the constant receptor prefix is available
    once via :meth:`static_state` and the observation space shrinks to
    ``engine.dynamic_dim()``.  :meth:`full_state` still produces the
    paper-shaped vector for checkpoints and external tools in every
    mode.  Emitted arrays stay valid for one subsequent step (codecs
    double-buffer) -- copy to hold longer.
    """

    def __init__(
        self,
        engine: MetadockEngine,
        *,
        escape_factor: float = 4.0 / 3.0,
        low_score_patience: int = 20,
        low_score_threshold: float = -100000.0,
        comm: CommChannel | None = None,
        randomize_reset: bool = False,
        reset_rng=None,
        tracer=None,
        observation_mode: str = "raw",
    ):
        if escape_factor <= 1.0:
            raise ValueError("escape_factor must exceed 1.0")
        if low_score_patience < 1:
            raise ValueError("low_score_patience must be >= 1")
        self.engine = engine
        #: Optional :class:`repro.telemetry.spans.SpanTracer`; when set,
        #: each step records "engine-step" (move + observe) and
        #: "comm-exchange" spans so the paper's limitation-1 split is
        #: measurable per run.
        self.tracer = tracer
        self.escape_factor = float(escape_factor)
        self.low_score_patience = int(low_score_patience)
        self.low_score_threshold = float(low_score_threshold)
        self.comm = comm or RamComm()
        self.randomize_reset = bool(randomize_reset)
        self._reset_rng = reset_rng

        self._codec = make_codec(observation_mode, engine)
        #: The emission contract of this env's codec.
        self.observation_spec: ObservationSpec = self._codec.spec
        self.observation_mode = observation_mode

        self.action_space = Discrete(engine.n_actions)
        self.observation_space = Box(
            -math.inf, math.inf, (self.observation_spec.dim,)
        )
        self._escape_radius = self.escape_factor * engine.initial_com_distance()
        self._last_score: float = float("nan")
        self._low_score_streak = 0
        self.episode_steps = 0
        self.total_steps = 0

    def _emit_state(self) -> np.ndarray:
        """Current state in the env's emission format."""
        return self._codec.encode()

    # -- protocol ------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Reset the ligand to the initial pose; returns the state."""
        pose: Pose | None = None
        if self.randomize_reset and self._reset_rng is not None:
            # Jitter the start slightly: keeps the start distribution
            # near Figure 3 position (A) while decorrelating episodes.
            jitter = self._reset_rng.normal(scale=0.5, size=3)
            self.engine.reset(observe=False)
            pose = self.engine.pose.translated(jitter)
        self.engine.reset(pose, observe=False)
        state, score = self.comm.exchange(
            self._emit_state(), self.engine.score()
        )
        self._last_score = score
        self._low_score_streak = 0
        self.episode_steps = 0
        return state

    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict[str, Any]]:
        """Apply one discrete action; returns (state, reward, done, info)."""
        if not self.action_space.contains(action):
            raise ValueError(
                f"invalid action {action!r} for {self.action_space}"
            )
        if math.isnan(self._last_score):
            raise RuntimeError("step() called before reset()")
        tr = self.tracer
        if tr is None:
            self.engine.apply_action(int(action))
            state, score = self.comm.exchange(
                self._emit_state(), self.engine.score()
            )
        else:
            with tr.span("engine-step"):
                self.engine.apply_action(int(action))
                state = self._emit_state()
                score = self.engine.score()
            with tr.span("comm-exchange"):
                state, score = self.comm.exchange(state, score)

        # Paper reward rules: sign of the clipped score change.
        delta = score - self._last_score
        reward = float(np.sign(delta))
        self._last_score = score

        done = False
        termination = ""
        com_d = self.engine.com_distance()
        if com_d > self._escape_radius:
            done = True
            termination = "escape"
        if score < self.low_score_threshold:
            self._low_score_streak += 1
            if self._low_score_streak >= self.low_score_patience:
                done = True
                termination = termination or "deep-penetration"
        else:
            self._low_score_streak = 0

        self.episode_steps += 1
        self.total_steps += 1
        info: dict[str, Any] = {
            "score": score,
            "score_delta": delta,
            "com_distance": com_d,
            "escape_radius": self._escape_radius,
            "low_score_streak": self._low_score_streak,
            "crystal_rmsd": self.engine.crystal_rmsd(),
        }
        if termination:
            info["termination"] = termination
        return state, reward, done, info

    # -- introspection ---------------------------------------------------------
    @property
    def escape_radius(self) -> float:
        """Episode-terminating COM distance (4/3 x initial by default)."""
        return self._escape_radius

    @property
    def state_dim(self) -> int:
        """Emitted state length (dynamic tail only in compact mode)."""
        return self.observation_space.shape[0]

    @property
    def state_dtype(self):
        """Dtype of emitted states (float64 raw, float32 otherwise)."""
        return self.observation_spec.np_dtype.type

    def static_state(self) -> np.ndarray | None:
        """Constant state prefix (float32) in compact mode, else None."""
        return self._codec.static_state()

    @property
    def n_actions(self) -> int:
        """Action count."""
        return self.action_space.n

    def current_score(self) -> float:
        """Score of the current pose (engine truth, bypasses comm)."""
        return self.engine.score()

    def close(self) -> None:
        """Release the comm channel."""
        self.comm.close()
