"""Categorical distributional DQN (C51, Bellemare et al. 2017).

The last of the Section 5 alternatives: instead of a scalar Q per
action, the network outputs a categorical distribution over ``n_atoms``
fixed support points in ``[v_min, v_max]``; learning projects the
Bellman-updated target distribution back onto the support and minimizes
cross-entropy.

C51 is a value head of :class:`~repro.rl.agent.DQNAgent`, switched on by
``AgentConfig.distributional``: the network then has
``n_actions * n_atoms`` linear outputs read as ``(batch, actions,
atoms)`` logits, and everything else (replay, n-step windows, the
epsilon policy, target sync, checkpoints) is the agent's own.  Softmax
over atoms happens here (not in the network) so the cross-entropy
gradient stays the simple ``p - m`` form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DistributionalConfig:
    """C51 value-distribution support; also the agent's categorical head."""

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

    def probabilities(self, logits: np.ndarray) -> np.ndarray:
        """``(..., actions, atoms)`` probabilities from network outputs."""
        z = logits.reshape(*logits.shape[:-1], -1, self.n_atoms)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def q_values(self, net, x: np.ndarray) -> np.ndarray:
        """Expected values E[Z(s, a)] of ``net`` at one state or a batch."""
        return self.probabilities(net.predict(x)) @ self.support


def project_target(
    dist: DistributionalConfig,
    rewards: np.ndarray,
    terminals: np.ndarray,
    next_probs: np.ndarray,
    discounts: np.ndarray,
) -> np.ndarray:
    """Categorical projection of the Bellman-shifted distribution."""
    b = rewards.shape[0]
    tz = rewards[:, None] + discounts[:, None] * (
        ~terminals[:, None]
    ) * dist.support[None, :]
    tz = np.clip(tz, dist.v_min, dist.v_max)
    pos = (tz - dist.v_min) / dist.delta_z
    lower = np.floor(pos).astype(int)
    upper = np.ceil(pos).astype(int)
    m = np.zeros((b, dist.n_atoms))
    # When lower == upper (exact hit) give full mass to that atom.
    w_up = np.where(lower == upper, 0.0, pos - lower)
    rows = np.repeat(np.arange(b), dist.n_atoms)
    np.add.at(m, (rows, lower.ravel()), (next_probs * (1.0 - w_up)).ravel())
    np.add.at(m, (rows, upper.ravel()), (next_probs * w_up).ravel())
    return m


def categorical_target(
    dist: DistributionalConfig, target_net, batch, next_states: np.ndarray
) -> np.ndarray:
    """The projected target distribution ``m`` of a minibatch.

    The target network's greedy action (by expected value) supplies
    each next-state distribution.
    """
    next_probs_all = dist.probabilities(target_net.predict(next_states))
    best = np.argmax(next_probs_all @ dist.support, axis=1)
    next_probs = next_probs_all[np.arange(len(best)), best]  # (b, atoms)
    return project_target(
        dist, batch.rewards, batch.terminals, next_probs, batch.discounts
    )


def categorical_backward(
    dist: DistributionalConfig,
    net,
    states: np.ndarray,
    batch,
    m: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy of the taken actions against ``m``, backpropagated.

    Accumulates ``net``'s gradients (the caller zeroes them first) and
    returns ``(loss, td_errors, q)``: the importance-weighted mean
    cross-entropy, the expected-value TD errors, and the batch's
    expected values ``(b, actions)``.
    """
    b = m.shape[0]
    rows = np.arange(b)
    logits = net.forward(states, train=True)
    probs = dist.probabilities(logits)
    chosen = probs[rows, batch.actions]  # (b, atoms)
    w = batch.weights
    loss = float((w * -(m * np.log(chosen + 1e-12)).sum(axis=1)).mean())
    # d(cross-entropy)/d(logits of chosen action) = p - m.
    grad_logits = np.zeros_like(probs)
    grad_logits[rows, batch.actions] = (chosen - m) * w[:, None] / b
    net.backward(grad_logits.reshape(logits.shape), need_input_grad=False)
    td = (chosen @ dist.support) - (m @ dist.support)
    return loss, td, probs @ dist.support
