"""Exploration schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.schedules import ConstantSchedule, EpsilonGreedy, LinearSchedule


class TestLinearSchedule:
    def test_paper_parameters(self):
        # Table 1: 1.0 -> 0.05 at 4.5e-5 per step.
        sched = LinearSchedule(1.0, 0.05, 4.5e-5)
        assert sched(0) == 1.0
        assert sched(10000) == pytest.approx(1.0 - 0.45)
        assert sched(1000000) == 0.05

    def test_saturation_step(self):
        sched = LinearSchedule(1.0, 0.05, 4.5e-5)
        n = 0.95 / 4.5e-5
        assert sched(int(n) - 1) > 0.05
        assert sched(int(n) + 1) == 0.05

    def test_zero_decay_constant(self):
        sched = LinearSchedule(0.3, 0.05, 0.0)
        assert sched(10**9) == 0.3

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            LinearSchedule(1.0, 0.0, 0.1)(-1)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            LinearSchedule(1.0, 0.0, -0.1)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_nonincreasing(self, a, b):
        sched = LinearSchedule(1.0, 0.05, 4.5e-5)
        lo, hi = sorted((a, b))
        assert sched(hi) <= sched(lo)

    @given(st.integers(0, 10**7))
    @settings(max_examples=30, deadline=None)
    def test_always_in_range(self, step):
        sched = LinearSchedule(1.0, 0.05, 4.5e-5)
        assert 0.05 <= sched(step) <= 1.0


class TestConstantSchedule:
    def test_constant(self):
        s = ConstantSchedule(0.1)
        assert s(0) == s(10**9) == 0.1


class TestEpsilonGreedy:
    def _policy(self, exploration_steps=0, seed=0):
        return EpsilonGreedy(
            LinearSchedule(1.0, 0.0, 0.01),
            n_actions=4,
            exploration_steps=exploration_steps,
            rng=seed,
        )

    def test_forced_exploration_window(self):
        pol = self._policy(exploration_steps=100)
        assert pol.epsilon(0) == 1.0
        assert pol.epsilon(99) == 1.0
        assert pol.epsilon(150) == pytest.approx(0.5)

    def test_greedy_when_epsilon_zero(self):
        pol = self._policy()
        q = np.array([0.0, 5.0, 1.0, -2.0])
        # step far beyond decay: epsilon = 0 -> always argmax
        for _ in range(20):
            assert pol.select(q, 10**6) == 1

    def test_random_when_epsilon_one(self):
        pol = self._policy(exploration_steps=10**9)
        actions = {pol.select(np.zeros(4), 0) for _ in range(100)}
        assert actions == {0, 1, 2, 3}

    def test_qvalue_shape_checked(self):
        pol = self._policy()
        with pytest.raises(ValueError):
            pol.select(np.zeros(3), 10**6)

    def test_invalid_action_count(self):
        with pytest.raises(ValueError):
            EpsilonGreedy(ConstantSchedule(0.1), 0)

    def test_deterministic_given_seed(self):
        a = self._policy(seed=5)
        b = self._policy(seed=5)
        q = np.array([1.0, 0.0, 0.0, 2.0])
        seq_a = [a.select(q, t) for t in range(20)]
        seq_b = [b.select(q, t) for t in range(20)]
        assert seq_a == seq_b
