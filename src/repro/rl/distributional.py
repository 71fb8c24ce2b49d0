"""Categorical distributional DQN (C51, Bellemare et al. 2017).

The last of the Section 5 alternatives: instead of a scalar Q per
action, the network outputs a categorical distribution over ``n_atoms``
fixed support points in ``[v_min, v_max]``; learning projects the
Bellman-updated target distribution back onto the support and minimizes
cross-entropy.

The network has ``n_actions * n_atoms`` linear outputs reshaped to
``(batch, actions, atoms)``; softmax over atoms happens here (not in the
network) so the cross-entropy gradient stays the simple ``p - m`` form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.network import MLP, build_mlp
from repro.nn.optimizers import make_optimizer
from repro.rl.agent import AgentConfig, LearnInfo
from repro.rl.replay import ReplayMemory
from repro.rl.schedules import EpsilonGreedy, LinearSchedule
from repro.utils.rng import RngFactory


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class DistributionalConfig:
    """C51 value-distribution support."""

    n_atoms: int = 51
    v_min: float = -50.0
    v_max: float = 50.0

    def __post_init__(self) -> None:
        if self.n_atoms < 2:
            raise ValueError("n_atoms must be >= 2")
        if not self.v_min < self.v_max:
            raise ValueError("need v_min < v_max")

    @property
    def support(self) -> np.ndarray:
        """The fixed atom locations z_i."""
        return np.linspace(self.v_min, self.v_max, self.n_atoms)

    @property
    def delta_z(self) -> float:
        """Spacing between adjacent atoms."""
        return (self.v_max - self.v_min) / (self.n_atoms - 1)


class DistributionalDQNAgent:
    """C51 agent with the same act/remember/learn interface as DQNAgent."""

    def __init__(
        self,
        config: AgentConfig,
        dist: DistributionalConfig | None = None,
    ):
        self.config = config
        self.dist = dist or DistributionalConfig()
        rngs = RngFactory(config.seed)
        out_dim = config.n_actions * self.dist.n_atoms
        self.q_net: MLP = build_mlp(
            config.state_dim,
            config.hidden_sizes,
            out_dim,
            activation=config.activation,
            rng=rngs.get("network"),
        )
        self.target_net = self.q_net.clone()
        self.optimizer = make_optimizer(
            config.update_rule,
            self.q_net.params(),
            self.q_net.grads(),
            config.learning_rate,
            max_grad_norm=config.max_grad_norm,
        )
        self.replay = ReplayMemory(
            config.replay_capacity, config.state_dim, seed=rngs.get("replay")
        )
        self.policy = EpsilonGreedy(
            LinearSchedule(
                config.epsilon_start,
                config.epsilon_final,
                config.epsilon_decay,
            ),
            config.n_actions,
            exploration_steps=config.initial_exploration_steps,
            rng=rngs.get("policy"),
        )
        self.learn_steps = 0
        self.target_syncs = 0

    # -- distributions -----------------------------------------------------
    def _distribution(self, net: MLP, states: np.ndarray) -> np.ndarray:
        """(batch, actions, atoms) probabilities from ``net``."""
        x = np.asarray(states, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        logits = net.predict(x).reshape(
            x.shape[0], self.config.n_actions, self.dist.n_atoms
        )
        probs = _softmax(logits, axis=-1)
        return probs[0] if squeeze else probs

    def predict_q(self, state: np.ndarray) -> np.ndarray:
        """Expected values E[Z(s, a)] -- comparable to scalar Q-values."""
        probs = self._distribution(self.q_net, state)
        return probs @ self.dist.support

    def act(self, state: np.ndarray, global_step: int) -> tuple[int, np.ndarray]:
        """Epsilon-greedy on expected values; returns (action, q_values)."""
        q = self.predict_q(state)
        return self.policy.select(q, global_step), q

    def greedy_action(self, state: np.ndarray) -> int:
        """Pure exploitation."""
        return int(np.argmax(self.predict_q(state)))

    def remember(
        self, state, action, reward, next_state, terminal, source=0
    ) -> None:
        """Store a transition (1-step: ``source`` makes no difference)."""
        self.replay.push(
            state, action, reward, next_state, terminal,
            discount=self.config.gamma,
        )

    def flush_episode(self, source=0) -> None:
        """No n-step window to drain (trainer protocol no-op)."""

    def can_learn(self) -> bool:
        """True once the memory holds a minibatch."""
        return len(self.replay) >= self.config.minibatch_size

    # -- learning -------------------------------------------------------------
    def _project_target(
        self,
        rewards: np.ndarray,
        terminals: np.ndarray,
        next_probs: np.ndarray,
        discounts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Categorical projection of the Bellman-shifted distribution."""
        d = self.dist
        b = rewards.shape[0]
        if discounts is None:
            discounts = np.full(b, self.config.gamma)
        tz = rewards[:, None] + discounts[:, None] * (
            ~terminals[:, None]
        ) * d.support[None, :]
        tz = np.clip(tz, d.v_min, d.v_max)
        pos = (tz - d.v_min) / d.delta_z
        lower = np.floor(pos).astype(int)
        upper = np.ceil(pos).astype(int)
        m = np.zeros((b, d.n_atoms))
        # When lower == upper (exact hit) give full mass to that atom.
        exact = lower == upper
        w_up = pos - lower
        w_lo = 1.0 - w_up
        rows = np.repeat(np.arange(b), d.n_atoms)
        np.add.at(
            m,
            (rows, lower.ravel()),
            (next_probs * np.where(exact, 1.0, w_lo)).ravel(),
        )
        np.add.at(
            m,
            (rows, upper.ravel()),
            (next_probs * np.where(exact, 0.0, w_up)).ravel(),
        )
        return m

    def learn(self) -> LearnInfo:
        """One C51 cross-entropy step."""
        cfg = self.config
        batch = self.replay.sample(cfg.minibatch_size)
        b = len(batch)
        d = self.dist

        next_probs_all = self._distribution(self.target_net, batch.next_states)
        next_q = next_probs_all @ d.support
        best = np.argmax(next_q, axis=1)
        next_probs = next_probs_all[np.arange(b), best]  # (b, atoms)
        m = self._project_target(
            batch.rewards, batch.terminals, next_probs, batch.discounts
        )

        self.q_net.zero_grad()
        logits = self.q_net.forward(batch.states, train=True).reshape(
            b, cfg.n_actions, d.n_atoms
        )
        probs = _softmax(logits, axis=-1)
        chosen = probs[np.arange(b), batch.actions]  # (b, atoms)
        eps = 1e-12
        loss = float(-(m * np.log(chosen + eps)).sum(axis=1).mean())
        # d(cross-entropy)/d(logits of chosen action) = p - m.
        grad_logits = np.zeros_like(logits)
        grad_logits[np.arange(b), batch.actions] = (chosen - m) / b
        self.q_net.backward(
            grad_logits.reshape(b, -1), need_input_grad=False
        )
        self.optimizer.step()
        self.learn_steps += 1

        q_all = probs @ d.support
        td = (chosen @ d.support) - (m @ d.support)
        return LearnInfo(
            loss=loss,
            mean_q=float(q_all.mean()),
            max_q=float(q_all.max(axis=1).mean()),
            mean_td_error=float(np.abs(td).mean()),
        )

    def sync_target(self) -> None:
        """Copy online weights into the target network."""
        self.target_net.copy_weights_from(self.q_net)
        self.target_syncs += 1

    # -- checkpointing --------------------------------------------------

    def state_dict(self) -> dict:
        """Full C51 learner state (networks, optimizer, replay, RNGs)."""
        from repro.nn.checkpoints import network_arrays
        from repro.utils.rng import generator_state

        return {
            "state_dim": self.config.state_dim,
            "n_actions": self.config.n_actions,
            "n_atoms": self.dist.n_atoms,
            "q_net": network_arrays(self.q_net),
            "target_net": network_arrays(self.target_net),
            "optimizer": self.optimizer.state_dict(),
            "replay": self.replay.state_dict(),
            "policy_rng": generator_state(self.policy.rng),
            "learn_steps": self.learn_steps,
            "target_syncs": self.target_syncs,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (validated, in place)."""
        from repro.nn.checkpoints import (
            CheckpointMismatchError,
            load_network_arrays,
        )
        from repro.utils.rng import restore_generator

        checks = (
            ("state_dim", self.config.state_dim),
            ("n_actions", self.config.n_actions),
            ("n_atoms", self.dist.n_atoms),
        )
        for field_name, expected in checks:
            if int(state.get(field_name, -1)) != expected:
                raise CheckpointMismatchError(
                    f"C51 {field_name} mismatch: checkpoint "
                    f"{state.get(field_name)} vs agent {expected}"
                )
        load_network_arrays(self.q_net, state["q_net"], source="q_net")
        load_network_arrays(
            self.target_net, state["target_net"], source="target_net"
        )
        self.optimizer.load_state_dict(state["optimizer"])
        self.replay.load_state_dict(state["replay"])
        restore_generator(self.policy.rng, state["policy_rng"])
        self.learn_steps = int(state["learn_steps"])
        self.target_syncs = int(state["target_syncs"])
