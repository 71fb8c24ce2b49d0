"""Seeded equivalence of compact-state replay against dense storage.

The compact layout (static prefix factored out, successor-sharing
dynamic ring, overflow pool) must be an *invisible* optimization: under
the same seed and the same pushes, samples reconstruct bit-for-bit the
states a dense ring would have returned.  Covered here: plain
trajectories, terminal boundaries, ring wrap, interleaved multi-env
pushes, bare-tail pushes, prioritized replay, and the n-step buffer
interaction at agent level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.prioritized_replay import PrioritizedReplayMemory
from repro.rl.replay import ReplayMemory
from tests.test_nn_float32 import DRIFT_BOUND, relative_drift

STATE_DIM = 40
PREFIX_LEN = 28
TAIL_DIM = STATE_DIM - PREFIX_LEN


def _static(seed=0):
    return np.random.default_rng(seed).standard_normal(
        PREFIX_LEN
    ).astype(np.float32)


def _pair(capacity, seed=11, static=None, cls=ReplayMemory):
    """(dense, compact) memories sharing the sampling seed."""
    static = _static() if static is None else static
    dense = cls(capacity, STATE_DIM, seed=seed)
    compact = cls(capacity, STATE_DIM, seed=seed, static_prefix=static)
    return dense, compact, static


def _trajectory(rng, static, n_steps, terminal_every=None):
    """Full-state transitions whose prefix is the shared static block
    and whose next_state chains into the following state."""
    out = []
    state = np.concatenate([static, rng.standard_normal(TAIL_DIM)])
    for t in range(n_steps):
        terminal = (
            terminal_every is not None and (t + 1) % terminal_every == 0
        )
        nxt = np.concatenate([static, rng.standard_normal(TAIL_DIM)])
        out.append(
            (state, int(rng.integers(4)), float(rng.normal()), nxt,
             terminal)
        )
        state = (
            np.concatenate([static, rng.standard_normal(TAIL_DIM)])
            if terminal else nxt
        )
    return out


def _push_all(mem, transitions):
    for s, a, r, ns, term in transitions:
        mem.push(s, a, r, ns, term, discount=0.99)


def _assert_batches_equal(b1, b2):
    np.testing.assert_array_equal(b1.states, b2.states)
    np.testing.assert_array_equal(b1.next_states, b2.next_states)
    np.testing.assert_array_equal(b1.actions, b2.actions)
    np.testing.assert_array_equal(b1.rewards, b2.rewards)
    np.testing.assert_array_equal(b1.terminals, b2.terminals)
    np.testing.assert_array_equal(b1.indices, b2.indices)
    np.testing.assert_array_equal(b1.discounts, b2.discounts)


def _assert_contents_equal(dense, compact):
    assert len(dense) == len(compact)
    for i in range(len(dense)):
        td, tc = dense[i], compact[i]
        np.testing.assert_array_equal(td.state, tc.state)
        np.testing.assert_array_equal(td.next_state, tc.next_state)
        assert td.action == tc.action
        assert td.reward == tc.reward
        assert td.terminal == tc.terminal


class TestCompactVsDense:
    def test_identical_samples_plain_trajectory(self):
        dense, compact, static = _pair(capacity=64)
        traj = _trajectory(np.random.default_rng(1), static, 50)
        _push_all(dense, traj)
        _push_all(compact, traj)
        for _ in range(10):
            _assert_batches_equal(dense.sample(8), compact.sample(8))

    def test_identical_samples_with_terminals(self):
        dense, compact, static = _pair(capacity=64)
        traj = _trajectory(
            np.random.default_rng(2), static, 60, terminal_every=7
        )
        _push_all(dense, traj)
        _push_all(compact, traj)
        _assert_contents_equal(dense, compact)
        for _ in range(10):
            _assert_batches_equal(dense.sample(16), compact.sample(16))

    def test_identical_after_ring_wrap(self):
        # Capacity 16, 3x overwritten, episodes ending mid-ring: the
        # successor aliasing must stay correct through every overwrite.
        dense, compact, static = _pair(capacity=16)
        traj = _trajectory(
            np.random.default_rng(3), static, 55, terminal_every=5
        )
        _push_all(dense, traj)
        _push_all(compact, traj)
        assert len(compact) == compact.capacity
        _assert_contents_equal(dense, compact)
        for _ in range(20):
            _assert_batches_equal(dense.sample(8), compact.sample(8))

    def test_interleaved_multi_env_pushes(self):
        # Two independent trajectories pushed alternately (the vector
        # trainer's pattern): successors never land in adjacent slots,
        # so every next-state must spill to the overflow pool -- and
        # samples must still match dense exactly.
        dense, compact, static = _pair(capacity=32)
        rng = np.random.default_rng(4)
        t_a = _trajectory(rng, static, 30, terminal_every=9)
        t_b = _trajectory(rng, static, 30, terminal_every=11)
        for pair in zip(t_a, t_b):
            for s, a, r, ns, term in pair:
                dense.push(s, a, r, ns, term)
                compact.push(s, a, r, ns, term)
        _assert_contents_equal(dense, compact)
        for _ in range(10):
            _assert_batches_equal(dense.sample(8), compact.sample(8))

    def test_bare_tail_pushes_match_full_state_pushes(self):
        _, compact_tails, static = _pair(capacity=32)
        dense, compact_full, _ = _pair(capacity=32, static=static)
        traj = _trajectory(np.random.default_rng(5), static, 25)
        _push_all(dense, traj)
        _push_all(compact_full, traj)
        for s, a, r, ns, term in traj:
            compact_tails.push(
                s[PREFIX_LEN:], a, r, ns[PREFIX_LEN:], term,
                discount=0.99,
            )
        _assert_contents_equal(compact_full, compact_tails)
        _assert_batches_equal(dense.sample(8), compact_tails.sample(8))

    def test_prioritized_identical_samples(self):
        dense, compact, static = _pair(
            capacity=64, cls=PrioritizedReplayMemory
        )
        traj = _trajectory(
            np.random.default_rng(6), static, 50, terminal_every=8
        )
        _push_all(dense, traj)
        _push_all(compact, traj)
        for _ in range(5):
            bd = dense.sample(8)
            bc = compact.sample(8)
            _assert_batches_equal(bd, bc)
            np.testing.assert_array_equal(bd.weights, bc.weights)
            errs = np.random.default_rng(7).normal(size=8)
            dense.update_priorities(bd.indices, errs)
            compact.update_priorities(bc.indices, errs)

    def test_capacity_one(self):
        dense, compact, static = _pair(capacity=1)
        traj = _trajectory(np.random.default_rng(8), static, 5)
        _push_all(dense, traj)
        _push_all(compact, traj)
        _assert_contents_equal(dense, compact)


class TestCompactInternals:
    def test_overflow_rows_are_recycled(self):
        # Long multi-episode run on a small ring: the overflow pool must
        # stay bounded by the ring capacity (free-list recycling).
        static = _static()
        mem = ReplayMemory(8, STATE_DIM, seed=0, static_prefix=static)
        traj = _trajectory(
            np.random.default_rng(9), static, 200, terminal_every=3
        )
        _push_all(mem, traj)
        assert mem._overflow.shape[0] <= mem.capacity
        live = sum(1 for r in mem._next_ref if r >= 0)
        assert live <= mem.capacity

    def test_successor_sharing_uses_no_overflow(self):
        # An unbroken non-terminal trajectory needs at most the pending
        # slot -- zero overflow rows while the ring has not wrapped.
        static = _static()
        mem = ReplayMemory(64, STATE_DIM, seed=0, static_prefix=static)
        traj = _trajectory(np.random.default_rng(10), static, 40)
        _push_all(mem, traj)
        assert mem._over_used == 0

    def test_static_prefix_validation(self):
        with pytest.raises(ValueError):
            ReplayMemory(
                8, STATE_DIM,
                static_prefix=np.zeros((2, 4), dtype=np.float32),
            )
        with pytest.raises(ValueError):
            ReplayMemory(
                8, STATE_DIM,
                static_prefix=np.zeros(STATE_DIM, dtype=np.float32),
            )

    def test_bad_tail_length_raises(self):
        static = _static()
        mem = ReplayMemory(8, STATE_DIM, static_prefix=static)
        with pytest.raises(ValueError):
            mem.push(np.zeros(5), 0, 0.0, np.zeros(5), False)


class TestNbytes:
    def test_nbytes_includes_discounts(self):
        mem = ReplayMemory(100, STATE_DIM)
        assert mem.nbytes() >= mem._discounts.nbytes
        accounted = (
            mem._states.nbytes + mem._next_states.nbytes
            + mem._actions.nbytes + mem._rewards.nbytes
            + mem._terminals.nbytes + mem._discounts.nbytes
        )
        assert mem.nbytes() == accounted

    def test_compact_is_much_smaller_than_dense(self):
        static = _static()
        dense = ReplayMemory(512, STATE_DIM)
        compact = ReplayMemory(512, STATE_DIM, static_prefix=static)
        assert compact.nbytes() < dense.nbytes() / 2

    def test_paper_scale_compact_under_2gb(self):
        # np.zeros is lazy (calloc), so this costs no real memory.
        static = np.zeros(16599 - 267, dtype=np.float32)
        mem = ReplayMemory(400_000, 16599, static_prefix=static)
        assert mem.nbytes() < 2 * 1024**3
        assert mem.prefix_len == 16599 - 267
        assert mem.state_dim - mem.prefix_len == 267


class TestAgentLevel:
    def _agent(self, static=None, n_step=1, prioritized=False):
        cfg = AgentConfig(
            state_dim=STATE_DIM,
            n_actions=4,
            hidden_sizes=(16,),
            minibatch_size=8,
            replay_capacity=128,
            n_step=n_step,
            prioritized=prioritized,
            seed=42,
        )
        return DQNAgent(cfg, static_state=static)

    def _run_pair(self, n_step=1, prioritized=False, steps=60):
        """Feed the same trajectory to a dense and a compact agent."""
        static = _static()
        dense = self._agent(n_step=n_step, prioritized=prioritized)
        compact = self._agent(
            static=static, n_step=n_step, prioritized=prioritized
        )
        rng = np.random.default_rng(20)
        traj = _trajectory(rng, static, steps, terminal_every=13)
        losses = []
        for s, a, r, ns, term in traj:
            dense.remember(s, a, r, ns, term)
            compact.remember(s, a, r, ns, term)
            if dense.can_learn() and compact.can_learn():
                ld = dense.learn()
                lc = compact.learn()
                losses.append((ld.loss, lc.loss))
        return dense, compact, losses

    # Compact and dense agents see bit-identical batches (the replay
    # pins above), but they no longer do bit-identical arithmetic: a
    # compact agent's first layer is bound to the constant prefix and
    # computes tails @ W[p:] + (x_static @ W[:p] + b) and the rank-1
    # x_static * sum_b(delta_b) instead of the full-width GEMMs, which
    # sums the same products in a different order.  So the same
    # trajectory must give the same number of learn steps and losses /
    # weights within the float32 drift bound of docs/PERFORMANCE.md
    # (measured ~1e-7 relative).

    def _assert_same_learning(self, dense, compact, losses, weights=True):
        assert losses
        assert dense.learn_steps == compact.learn_steps == len(losses)
        dense_losses, compact_losses = zip(*losses)
        assert relative_drift(compact_losses, dense_losses) < DRIFT_BOUND
        if weights:
            for pd, pc in zip(dense.q_net.params(), compact.q_net.params()):
                assert pd.shape == pc.shape and pd.dtype == pc.dtype
                assert relative_drift(pc, pd) < DRIFT_BOUND

    def test_learn_identical_one_step(self):
        self._assert_same_learning(*self._run_pair())

    def test_learn_identical_n_step(self):
        # The n-step window snapshots compact tails; targets and
        # resulting weights must still match dense.
        self._assert_same_learning(*self._run_pair(n_step=3))

    def test_learn_identical_prioritized(self):
        dense, compact, losses = self._run_pair(prioritized=True)
        self._assert_same_learning(dense, compact, losses, weights=False)
        # Same priorities (to drift) drew the same transitions.
        np.testing.assert_array_equal(
            dense.replay.sample(8).indices, compact.replay.sample(8).indices
        )

    def test_act_accepts_bare_tails(self):
        static = _static()
        compact = self._agent(static=static)
        tail = np.random.default_rng(0).standard_normal(TAIL_DIM)
        full = np.concatenate([static, tail])
        q_tail = compact.predict_q(tail).copy()
        q_full = compact.predict_q(full)
        np.testing.assert_allclose(q_tail, q_full, rtol=1e-6, atol=1e-6)

    def test_replay_bytes_shrink(self):
        static = _static()
        dense = self._agent()
        compact = self._agent(static=static)
        assert compact.replay.nbytes() < dense.replay.nbytes()
