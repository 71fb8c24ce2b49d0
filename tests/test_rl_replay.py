"""Replay memories: ring semantics, sampling, sum-tree priorities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.prioritized_replay import PrioritizedReplayMemory, SumTree
from repro.rl.replay import ReplayMemory


def fill(mem: ReplayMemory, n: int, state_dim: int = 4) -> None:
    for k in range(n):
        s = np.full(state_dim, float(k))
        mem.push(s, k % 3, float(k), s + 1, k % 5 == 0)


class TestReplayMemory:
    def test_grows_then_saturates(self):
        mem = ReplayMemory(10, 4, seed=0)
        fill(mem, 7)
        assert len(mem) == 7
        fill(mem, 10)
        assert len(mem) == 10 == mem.capacity

    def test_ring_overwrites_oldest(self):
        mem = ReplayMemory(3, 2, seed=0)
        for k in range(5):
            mem.push(np.full(2, k), 0, float(k), np.zeros(2), False)
        stored = {mem[i].reward for i in range(3)}
        assert stored == {2.0, 3.0, 4.0}

    def test_sample_shapes(self):
        mem = ReplayMemory(50, 4, seed=0)
        fill(mem, 20)
        batch = mem.sample(8)
        assert batch.states.shape == (8, 4)
        assert batch.next_states.shape == (8, 4)
        assert batch.actions.shape == (8,)
        assert batch.rewards.shape == (8,)
        assert batch.terminals.dtype == bool
        assert (batch.weights == 1.0).all()
        assert len(batch) == 8

    def test_sample_only_valid_slots(self):
        mem = ReplayMemory(100, 4, seed=0)
        fill(mem, 5)
        batch = mem.sample(64)
        assert (batch.indices < 5).all()

    def test_sample_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplayMemory(10, 2).sample(1)

    def test_getitem_roundtrip(self):
        mem = ReplayMemory(10, 3, seed=0)
        s = np.array([1.0, 2.0, 3.0])
        mem.push(s, 2, 0.5, s * 2, True)
        t = mem[0]
        np.testing.assert_allclose(t.state, s, atol=1e-6)
        assert t.action == 2 and t.reward == 0.5 and t.terminal

    def test_getitem_bounds(self):
        mem = ReplayMemory(10, 2)
        with pytest.raises(IndexError):
            mem[0]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ReplayMemory(0, 4)
        with pytest.raises(ValueError):
            ReplayMemory(4, 0)

    def test_float32_storage_saves_memory(self):
        mem = ReplayMemory(100, 10)
        # states + next_states at float32: 100*10*4*2 bytes
        assert mem.nbytes() < 100 * 10 * 8 * 2 + 100 * 32

    def test_deterministic_sampling(self):
        a = ReplayMemory(20, 2, seed=42)
        b = ReplayMemory(20, 2, seed=42)
        fill(a, 10, 2)
        fill(b, 10, 2)
        np.testing.assert_array_equal(a.sample(5).indices, b.sample(5).indices)


class TestSumTree:
    def test_total_tracks_updates(self):
        t = SumTree(8)
        t.update(0, 1.0)
        t.update(3, 2.5)
        assert t.total == pytest.approx(3.5)
        t.update(0, 0.5)
        assert t.total == pytest.approx(3.0)

    def test_get(self):
        t = SumTree(4)
        t.update(2, 7.0)
        assert t.get(2) == 7.0
        assert t.get(1) == 0.0

    def test_find_respects_proportions(self):
        t = SumTree(4)
        t.update(0, 1.0)
        t.update(1, 3.0)
        assert t.find(0.5) == 0
        assert t.find(1.5) == 1
        assert t.find(3.9) == 1

    def test_bounds_checked(self):
        t = SumTree(4)
        with pytest.raises(IndexError):
            t.update(4, 1.0)
        with pytest.raises(ValueError):
            t.update(0, -1.0)

    def test_max_priority(self):
        t = SumTree(4)
        assert t.max_priority() == 0.0
        t.update(1, 9.0)
        assert t.max_priority() == 9.0

    @given(
        st.lists(
            st.floats(0.01, 100.0), min_size=1, max_size=16
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_find_always_lands_on_positive_leaf(self, priorities):
        t = SumTree(len(priorities))
        for i, p in enumerate(priorities):
            t.update(i, p)
        rng = np.random.default_rng(0)
        for _ in range(20):
            prefix = rng.uniform(0, t.total * 0.999999)
            leaf = t.find(prefix)
            assert 0 <= leaf < len(priorities)
            assert t.get(leaf) > 0.0

    @given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_total_equals_leaf_sum(self, priorities):
        t = SumTree(len(priorities))
        for i, p in enumerate(priorities):
            t.update(i, p)
        assert t.total == pytest.approx(sum(priorities))


class TestPrioritizedReplay:
    def test_new_items_sampled_at_least_once_priority(self):
        mem = PrioritizedReplayMemory(16, 2, seed=0)
        fill(mem, 4, 2)
        # All initial priorities equal (max seeding).
        pris = [mem._tree.get(i) for i in range(4)]
        assert len(set(pris)) == 1 and pris[0] > 0

    def test_update_priorities_biases_sampling(self):
        mem = PrioritizedReplayMemory(8, 2, seed=1, alpha=1.0)
        fill(mem, 8, 2)
        # Make slot 3 dominate.
        mem.update_priorities(np.arange(8), np.full(8, 1e-6))
        mem.update_priorities(np.array([3]), np.array([1000.0]))
        counts = np.zeros(8)
        for _ in range(30):
            batch = mem.sample(4)
            for i in batch.indices:
                counts[i] += 1
        assert counts[3] > 0.8 * counts.sum()

    def test_weights_normalized(self):
        mem = PrioritizedReplayMemory(16, 2, seed=2)
        fill(mem, 10, 2)
        batch = mem.sample(6)
        assert batch.weights.max() == pytest.approx(1.0)
        assert (batch.weights > 0).all()

    def test_beta_anneals(self):
        mem = PrioritizedReplayMemory(
            16, 2, seed=3, beta=0.4, beta_anneal_steps=10
        )
        fill(mem, 8, 2)
        assert mem.beta == pytest.approx(0.4)
        mem.sample(10)
        assert mem.beta == pytest.approx(1.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(8, 2, alpha=1.5)

    def test_sample_empty_rejected(self):
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(8, 2).sample(1)

    def test_indices_valid_after_wrap(self):
        mem = PrioritizedReplayMemory(4, 2, seed=4)
        fill(mem, 10, 2)
        batch = mem.sample(8)
        assert (batch.indices < 4).all()
