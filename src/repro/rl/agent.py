"""The DQN agent: Q-network, frozen target, replay, epsilon-greedy.

Implements the learner side of the paper's Algorithm 2, plus the
Section 5 variants behind flags:

- ``double=True`` -- Double DQN: the online network chooses the argmax
  action, the target network evaluates it (van Hasselt et al.);
- ``dueling=True`` -- dueling value/advantage head
  (:mod:`repro.nn.dueling`);
- ``prioritized=True`` -- prioritized replay with importance weights;
- ``distributional=DistributionalConfig(...)`` -- the categorical C51
  value head (:mod:`repro.rl.distributional`).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.config import DQNDockingConfig
from repro.nn.dueling import DuelingMLP
from repro.nn.layers import Dense
from repro.nn.losses import make_loss
from repro.nn.network import MLP, build_mlp
from repro.nn.optimizers import make_optimizer
from repro.rl.distributional import (
    DistributionalConfig,
    categorical_backward,
    categorical_target,
)
from repro.rl.nstep import NStepTransitionBuffer
from repro.rl.prioritized_replay import PrioritizedReplayMemory
from repro.rl.replay import ReplayMemory
from repro.rl.schedules import ConstantSchedule, EpsilonGreedy, LinearSchedule
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class AgentConfig:
    """Learner hyperparameters (see Table 1 for the paper's values)."""

    state_dim: int
    n_actions: int
    hidden_sizes: tuple[int, ...] = (135, 135)
    activation: str = "relu"
    gamma: float = 0.99
    learning_rate: float = 0.00025
    update_rule: str = "rmsprop"
    loss: str = "mse"
    minibatch_size: int = 32
    replay_capacity: int = 400000
    target_update_steps: int = 1000
    epsilon_start: float = 1.0
    epsilon_final: float = 0.05
    epsilon_decay: float = 4.5e-5
    initial_exploration_steps: int = 20000
    double: bool = False
    dueling: bool = False
    prioritized: bool = False
    #: Multi-step return horizon (1 = the paper's plain DQN; Rainbow
    #: uses 3).
    n_step: int = 1
    #: NoisyNet exploration: replaces epsilon-greedy with learned
    #: parameter noise (epsilon is forced to 0 when enabled).
    noisy: bool = False
    #: Polyak averaging coefficient for soft target updates; ``None``
    #: keeps the paper's hard every-C-steps sync.  When set, the target
    #: tracks ``tau * online + (1 - tau) * target`` after every learn
    #: step and explicit syncs become no-ops by default.
    target_update_tau: float | None = None
    #: C51 value head (categorical distribution over a fixed support,
    #: trained by cross-entropy); ``None`` keeps the scalar Q head.
    distributional: DistributionalConfig | None = None
    max_grad_norm: float | None = 10.0
    #: Network compute precision.  float32 halves matmul bandwidth on
    #: the paper's 10,059-wide input layer with no measurable effect on
    #: docking behaviour (see docs/PERFORMANCE.md for the drift bound);
    #: NoisyNet layers and the C51 head always run in float64.
    dtype: str = "float32"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_step < 1:
            raise ValueError("n_step must be >= 1")
        if self.target_update_tau is not None and not (
            0.0 < self.target_update_tau <= 1.0
        ):
            raise ValueError("target_update_tau must lie in (0, 1]")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.noisy and self.dueling:
            raise ValueError(
                "noisy + dueling is not supported; pick one head type"
            )
        if self.distributional is not None and (self.dueling or self.double):
            # The categorical step has no dueling head and picks the
            # bootstrap action with the target network only.
            raise ValueError(
                "the distributional (C51) head supports neither dueling "
                "nor double"
            )
        if self.distributional is not None and self.loss != "mse":
            # The categorical step always minimizes cross-entropy.
            raise ValueError(
                f"the distributional (C51) head ignores loss={self.loss!r}; "
                "it trains on cross-entropy (leave loss at 'mse')"
            )

    @staticmethod
    def from_run_config(
        cfg: DQNDockingConfig, state_dim: int, n_actions: int
    ) -> "AgentConfig":
        """Derive the learner config from a run-level config."""
        variant = cfg.variant
        return AgentConfig(
            state_dim=state_dim,
            n_actions=n_actions,
            hidden_sizes=(cfg.hidden_size,) * cfg.hidden_layers,
            activation=cfg.activation,
            gamma=cfg.gamma,
            learning_rate=cfg.learning_rate,
            update_rule=cfg.update_rule,
            loss=cfg.loss,
            minibatch_size=cfg.minibatch_size,
            replay_capacity=cfg.replay_capacity,
            target_update_steps=cfg.target_update_steps,
            epsilon_start=cfg.epsilon_start,
            epsilon_final=cfg.epsilon_final,
            epsilon_decay=cfg.epsilon_decay,
            initial_exploration_steps=cfg.initial_exploration_steps,
            double=variant in ("ddqn", "dueling-ddqn", "rainbow"),
            dueling=variant in ("dueling", "dueling-ddqn", "rainbow"),
            prioritized=variant == "rainbow",
            n_step=3 if variant == "rainbow" else 1,
            distributional=(
                DistributionalConfig() if variant == "distributional" else None
            ),
            seed=cfg.seed,
        )


class ScalarHead:
    """The plain value head: a network's outputs are its Q-values."""

    @staticmethod
    def q_values(net, x: np.ndarray) -> np.ndarray:
        return net.predict(x)


SCALAR_HEAD = ScalarHead()


@dataclass
class LearnInfo:
    """Diagnostics from one gradient step."""

    loss: float
    mean_q: float
    max_q: float
    mean_td_error: float


class DQNAgent:
    """Value-based agent with target network and experience replay.

    ``network`` overrides the default MLP (e.g. with a CNN from
    :func:`repro.nn.conv.build_cnn` for image states); it must accept
    flat ``config.state_dim`` inputs and emit ``config.n_actions``
    values (``n_actions * n_atoms`` logits under the C51 head).

    ``static_state`` enables compact-state mode: it is the constant
    leading block of every state (the docking receptor).  The replay
    then stores only dynamic tails (see :mod:`repro.rl.replay`), and
    ``act`` / ``predict_q`` / ``remember`` accept either full states or
    bare tails of ``state_dim - len(static_state)`` floats, which is
    what a compact :class:`~repro.env.docking_env.DockingEnv` emits.
    When the network's first layer is :class:`~repro.nn.layers.Dense`
    (every MLP and dueling variant) it is bound to the prefix
    (:meth:`~repro.nn.layers.Dense.bind_static_prefix`) and both
    networks consume tails directly; any other first layer (the CNN)
    gets full states reconstructed against the prefix.
    """

    def __init__(
        self,
        config: AgentConfig,
        *,
        network: MLP | None = None,
        static_state: np.ndarray | None = None,
    ):
        self.config = config
        rngs = RngFactory(config.seed)
        net_rng = rngs.get("network")
        dist = config.distributional
        # NoisyDense has no float32 path; C51 has always run in float64.
        float64 = config.noisy or dist is not None
        self.dtype = np.dtype(np.float64 if float64 else config.dtype)
        #: Reads Q-values off a network's outputs (:meth:`predict_q`, the
        #: actor sidecar): the outputs themselves, or C51's expectations.
        self.head = SCALAR_HEAD if dist is None else dist
        out_dim = config.n_actions * (1 if dist is None else dist.n_atoms)
        if network is not None:
            self.q_net = network
        elif config.noisy:
            from repro.nn.noisy import build_noisy_mlp

            self.q_net = build_noisy_mlp(
                config.state_dim,
                config.hidden_sizes,
                out_dim,
                rng=net_rng,
            )
        elif config.dueling:
            self.q_net: MLP = DuelingMLP(
                config.state_dim,
                config.hidden_sizes,
                config.n_actions,
                activation=config.activation,
                rng=net_rng,
                dtype=self.dtype,
            )
        else:
            self.q_net = build_mlp(
                config.state_dim,
                config.hidden_sizes,
                out_dim,
                activation=config.activation,
                rng=net_rng,
                dtype=self.dtype,
            )
        if static_state is not None:
            self._static = np.ascontiguousarray(
                static_state, dtype=self.dtype
            )
            self._static.flags.writeable = False
            if self._static.shape[0] >= config.state_dim:
                raise ValueError(
                    "static_state must be shorter than state_dim"
                )
            self._tail_dim = config.state_dim - self._static.shape[0]
            first = self.q_net.layers[0]
            self._prefix_bound = (
                isinstance(first, Dense) and self._static.shape[0] > 0
            )
            if self._prefix_bound:
                # Before the clone and the optimizer: binding re-homes
                # the layer's weight and gradient arrays.
                first.bind_static_prefix(self._static)
            else:
                # Full-state reconstruction buffer for single-state
                # acting; batched buffers allocate lazily per size.
                self._act_full = np.empty(
                    config.state_dim, dtype=self.dtype
                )
                self._act_full[: self._static.shape[0]] = self._static
                self._full_bufs: dict[int, np.ndarray] = {}
        else:
            self._static = None
            self._tail_dim = config.state_dim
        self.target_net = self.q_net.clone()
        self.optimizer = make_optimizer(
            config.update_rule,
            self.q_net.params(),
            self.q_net.grads(),
            config.learning_rate,
            max_grad_norm=config.max_grad_norm,
            live_units=self.q_net.live_units(),
        )
        self.loss_fn = make_loss(config.loss)
        replay_cls = (
            PrioritizedReplayMemory if config.prioritized else ReplayMemory
        )
        self.replay: ReplayMemory = replay_cls(
            config.replay_capacity,
            config.state_dim,
            seed=rngs.get("replay"),
            static_prefix=self._static,
        )
        # NoisyNet replaces epsilon-greedy: exploration comes from the
        # learned parameter noise, so epsilon stays at zero.
        self.policy = EpsilonGreedy(
            ConstantSchedule(0.0)
            if config.noisy
            else LinearSchedule(
                config.epsilon_start,
                config.epsilon_final,
                config.epsilon_decay,
            ),
            config.n_actions,
            exploration_steps=(
                0 if config.noisy else config.initial_exploration_steps
            ),
            rng=rngs.get("policy"),
        )
        # One n-step window per transition source (env column, actor),
        # made on first use: a window must only ever span one
        # environment's own steps.
        self._nstep: dict[int, NStepTransitionBuffer] | None = (
            defaultdict(
                lambda: NStepTransitionBuffer(config.n_step, config.gamma)
            )
            if config.n_step > 1
            else None
        )
        self.learn_steps = 0
        self.target_syncs = 0
        # Reused across learn steps instead of np.zeros_like per step.
        self._grad_out = np.zeros(
            (config.minibatch_size, config.n_actions), dtype=self.dtype
        )
        self._arange = np.arange(config.minibatch_size)
        #: Optional :class:`repro.telemetry.spans.SpanTracer`; when set,
        #: the forward pass and the learn internals record spans
        #: ("q-forward", "replay-sample", "grad-step") under whatever
        #: span the caller has open.  None (default) costs one attribute
        #: check per call.
        self.tracer = None

    # -- acting ----------------------------------------------------------
    @property
    def static_state(self) -> np.ndarray | None:
        """Constant state prefix in compact mode (None otherwise)."""
        return self._static

    @property
    def consumes_tails(self) -> bool:
        """True when the networks take bare tails (prefix-bound layer)."""
        return self._static is not None and self._prefix_bound

    def _net_input(self, x: np.ndarray) -> np.ndarray:
        """What the networks consume for ``x`` in compact mode.

        ``x`` holds full states or bare tails; a prefix-bound first
        layer gets tails (full states are sliced -- their prefix is the
        static block by contract), anything else full states.
        """
        is_tail = (
            x.shape[-1] == self._tail_dim
            and self._tail_dim != self.config.state_dim
        )
        if self._prefix_bound:
            return x if is_tail else x[..., self._static.shape[0] :]
        return self._expand_states(x) if is_tail else x

    def _expand_states(self, x: np.ndarray) -> np.ndarray:
        """Reconstruct full states from dynamic tails.

        Only for networks whose first layer is not ``Dense``.  Returns
        a reused buffer whose static prefix is pre-filled; it is
        overwritten by the next call with the same leading shape.
        """
        p = self._static.shape[0]
        if x.ndim == 1:
            self._act_full[p:] = x
            return self._act_full
        buf = self._full_bufs.get(x.shape[0])
        if buf is None:
            buf = np.empty(
                (x.shape[0], self.config.state_dim), dtype=self.dtype
            )
            buf[:, :p] = self._static
            self._full_bufs[x.shape[0]] = buf
        buf[:, p:] = x
        return buf

    def predict_q(self, state: np.ndarray) -> np.ndarray:
        """Q-values from the online network (expected values for C51).

        Accepts a single state or a (n, dim) batch; in compact mode,
        full states and bare dynamic tails are both accepted.
        """
        x = np.asarray(state)
        if self._static is not None:
            x = self._net_input(x)
        return self.head.q_values(self.q_net, x)

    def act(self, state: np.ndarray, global_step: int) -> tuple[int, np.ndarray]:
        """Epsilon-greedy (or noisy) action; returns (action, q_values).

        Q-values are always computed (even on random actions) because the
        Figure 4 metric averages ``max_a Q(s_t, a)`` over *every*
        time-step.  With NoisyNet exploration, fresh noise is drawn per
        acting step, which is where the exploration comes from.
        """
        if self.config.noisy:
            from repro.nn.noisy import resample_network_noise

            resample_network_noise(self.q_net)
        if self.tracer is None:
            q = self.predict_q(state)
        else:
            with self.tracer.span("q-forward"):
                q = self.predict_q(state)
        return self.policy.select(q, global_step), q

    def greedy_action(self, state: np.ndarray) -> int:
        """Pure exploitation (evaluation rollouts; noise frozen at 0)."""
        if self.config.noisy:
            from repro.nn.noisy import zero_network_noise

            zero_network_noise(self.q_net)
        return int(np.argmax(self.predict_q(state)))

    # -- remembering -------------------------------------------------------
    def remember(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        terminal: bool,
        source: int = 0,
    ) -> None:
        """Store a transition (accumulated to n steps when configured).

        ``source`` names the environment the transition came from when
        several feed one agent; n-step returns accumulate per source.
        """
        if self._nstep is None:
            self.replay.push(
                state, action, reward, next_state, terminal,
                discount=self.config.gamma,
            )
            return
        if self._static is not None:
            # The n-step window holds states across several env steps; a
            # compact env reuses its tail buffers, so snapshot them.
            state = np.array(state, dtype=self.dtype)
            next_state = np.array(next_state, dtype=self.dtype)
        self._push_nstep(
            self._nstep[source].push(
                state, action, reward, next_state, terminal
            )
        )

    def flush_episode(self, source: int = 0) -> None:
        """Drain ``source``'s n-step tail at its episode boundary."""
        if self._nstep is not None:
            self._push_nstep(self._nstep[source].flush())

    def _push_nstep(self, transitions) -> None:
        for t in transitions:
            self.replay.push(
                t.state, t.action, t.reward, t.next_state, t.terminal,
                discount=t.discount,
            )

    # -- learning -------------------------------------------------------------
    def can_learn(self) -> bool:
        """True once the memory holds at least one minibatch."""
        return len(self.replay) >= self.config.minibatch_size

    def learn(self) -> LearnInfo:
        """One Algorithm 2 gradient step on a sampled minibatch (the
        categorical step of :mod:`repro.rl.distributional` for C51)."""
        cfg = self.config
        dist = cfg.distributional
        if cfg.noisy:
            # Independent noise draws for the online and target networks
            # per update (Fortunato et al., section 3).
            from repro.nn.noisy import resample_network_noise

            resample_network_noise(self.q_net)
            resample_network_noise(self.target_net)
        sp = self.tracer.span if self.tracer is not None else (
            lambda _name: nullcontext()
        )
        with sp("replay-sample"):
            batch = self.replay.sample(cfg.minibatch_size)
        b = len(batch)
        rows = self._arange if b == self._arange.shape[0] else np.arange(b)
        states, next_states = batch.states, batch.next_states
        if self._static is not None:
            # The replay hands back full states; a prefix-bound first
            # layer wants their tails (strided views, no copy).
            states = self._net_input(states)
            next_states = self._net_input(next_states)

        if dist is not None:
            targets = categorical_target(
                dist, self.target_net, batch, next_states
            )
        else:
            q_next_target = self.target_net.predict(next_states)  # (b, k)
            if cfg.double:
                q_next_online = self.q_net.predict(next_states)
                best_actions = np.argmax(q_next_online, axis=1)
                next_values = q_next_target[rows, best_actions]
            else:
                next_values = q_next_target.max(axis=1)
            # Per-transition bootstrap discount: gamma for 1-step
            # pushes, gamma^h for h-step accumulated transitions.
            targets = batch.rewards + batch.discounts * next_values * (
                ~batch.terminals
            )

        with sp("grad-step"):
            self.q_net.zero_grad()
            if dist is not None:
                loss_value, td_errors, preds = categorical_backward(
                    dist, self.q_net, states, batch, targets
                )
            else:
                preds = self.q_net.forward(states, train=True)  # (b, k)
                pred_chosen = preds[rows, batch.actions]
                td_errors = pred_chosen - targets
                loss_value, grad_chosen = self.loss_fn(
                    pred_chosen, targets, weights=batch.weights
                )
                if b == self._grad_out.shape[0]:
                    grad_out = self._grad_out
                    grad_out.fill(0.0)
                else:
                    grad_out = np.zeros(
                        (b, preds.shape[1]), dtype=self.dtype
                    )
                grad_out[rows, batch.actions] = grad_chosen
                # Nothing sits below the network: skip the first
                # layer's input-grad matmul (at state_dim 10,059 it
                # matches the cost of the whole forward pass).
                self.q_net.backward(grad_out, need_input_grad=False)
            self.optimizer.step()
            # A step that skipped the dead units left their weights, and
            # the prefix bias entries derived from them, as they were.
            self.q_net.weights_changed(
                live_only=self.optimizer.skips_dead_units
            )
        self.learn_steps += 1

        if isinstance(self.replay, PrioritizedReplayMemory):
            self.replay.update_priorities(batch.indices, td_errors)

        if self.config.target_update_tau is not None:
            self._soft_update(self.config.target_update_tau)

        return LearnInfo(
            loss=float(loss_value),
            mean_q=float(preds.mean()),
            max_q=float(preds.max(axis=1).mean()),
            mean_td_error=float(np.abs(td_errors).mean()),
        )

    # -- checkpointing --------------------------------------------------

    def _shape(self) -> dict:
        """What a checkpoint must match to load: input and head widths
        (``n_atoms`` for C51 only) and the compute dtype."""
        shape = {
            "state_dim": self.config.state_dim,
            "n_actions": self.config.n_actions,
            "dtype": self.dtype.name,
        }
        if self.config.distributional is not None:
            shape["n_atoms"] = self.config.distributional.n_atoms
        return shape

    def state_dict(self) -> dict:
        """Everything needed to continue training bit-for-bit.

        Covers both networks, the optimizer slots, the full replay ring,
        the policy RNG, the n-step window, and the learn/sync counters.
        Epsilon itself is a pure function of the global step, which the
        run loop persists alongside this dict.
        """
        from repro.nn.checkpoints import network_arrays
        from repro.utils.rng import generator_state

        state: dict = {
            **self._shape(),
            "q_net": network_arrays(self.q_net),
            "target_net": network_arrays(self.target_net),
            "optimizer": self.optimizer.state_dict(),
            "replay": self.replay.state_dict(),
            "policy_rng": generator_state(self.policy.rng),
            "learn_steps": self.learn_steps,
            "target_syncs": self.target_syncs,
        }
        if self._nstep is not None:
            # Checkpoints are written at episode boundaries of every
            # source, so only the first window can hold anything.
            if any(len(w) for src, w in self._nstep.items() if src != 0):
                raise RuntimeError(
                    "n-step windows of sources other than 0 must be "
                    "flushed before the agent is checkpointed"
                )
            state["nstep"] = self._nstep[0].state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (validated, in place)."""
        from repro.nn.checkpoints import (
            CheckpointMismatchError,
            load_network_arrays,
        )
        from repro.utils.rng import restore_generator

        shape = self._shape()
        for key in ("state_dim", "n_actions", "dtype", "n_atoms"):
            if state.get(key) != shape.get(key):
                raise CheckpointMismatchError(
                    f"agent {key} mismatch: checkpoint {state.get(key)!r} "
                    f"vs agent {shape.get(key)!r}"
                )
        has_nstep = "nstep" in state
        if has_nstep != (self._nstep is not None):
            raise CheckpointMismatchError(
                "n-step configuration mismatch between checkpoint and "
                "agent"
            )
        load_network_arrays(self.q_net, state["q_net"], source="q_net")
        load_network_arrays(
            self.target_net, state["target_net"], source="target_net"
        )
        self.optimizer.load_state_dict(state["optimizer"])
        self.replay.load_state_dict(state["replay"])
        restore_generator(self.policy.rng, state["policy_rng"])
        if self._nstep is not None:
            self._nstep[0].load_state_dict(state["nstep"])
        self.learn_steps = int(state["learn_steps"])
        self.target_syncs = int(state["target_syncs"])

    def _soft_update(self, tau: float) -> None:
        """Polyak averaging: target <- tau * online + (1 - tau) * target."""
        for dst, src in zip(self.target_net.params(), self.q_net.params()):
            dst *= 1.0 - tau
            dst += tau * src
        self.target_net.weights_changed()

    def sync_target(self) -> None:
        """Copy online weights into the frozen target network (hard sync).

        With ``target_update_tau`` set, soft updates already run after
        every learn step; set the trainer's ``target_update_steps`` high
        so periodic hard syncs do not override the Polyak track.
        """
        self.target_net.copy_weights_from(self.q_net)
        self.target_syncs += 1
