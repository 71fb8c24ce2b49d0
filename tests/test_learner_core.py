"""LearnerCore: crossing-count cadence math and bit-equality pins.

The core was extracted from the two historical trainers; these tests
hold the extraction to *bit* equality.  The cadence unit tests pin the
crossing-count arithmetic at its boundaries, and the pin tests replay
the exact pre-extraction inline loops (sequential and vectorized)
against the refactored trainers on seeded agents -- final Q-network,
target-network, and replay-side counters must match to the last bit.
"""

import numpy as np
import pytest

from repro.env.factory import make_vector_env
from repro.rl.learner import LearnerCore
from repro.rl.trainer import Trainer
from repro.rl.vector_trainer import VectorTrainer

from tests.test_rl_trainer import CountingEnv, tiny_agent


class _LearnInfo:
    loss = 0.25


class RecordingAgent:
    """Counts learn/sync calls in order; cadence tests only."""

    def __init__(self, can_learn=True):
        self._can_learn = can_learn
        self.calls = []

    def can_learn(self):
        return self._can_learn

    def learn(self):
        self.calls.append("learn")
        return _LearnInfo()

    def sync_target(self):
        self.calls.append("sync")


class TestAdvanceCadence:
    def test_single_step_matches_modulo_check(self):
        # For +1 moves the crossing count reduces to the historical
        # ``new_step % interval == 0`` check, for every interval.
        for interval in (1, 2, 3, 7):
            agent = RecordingAgent()
            core = LearnerCore(
                agent, train_interval=interval, target_update_steps=10**9
            )
            for step in range(1, 22):
                n_before = len(agent.calls)
                core.advance(step - 1, step)
                learned = len(agent.calls) - n_before
                assert learned == (1 if step % interval == 0 else 0)

    def test_bulk_move_crosses_every_multiple(self):
        agent = RecordingAgent()
        core = LearnerCore(
            agent, train_interval=3, target_update_steps=10**9
        )
        infos = core.advance(0, 10)  # crosses 3, 6, 9
        assert len(infos) == 3
        assert agent.calls == ["learn"] * 3

    def test_no_double_count_across_calls(self):
        # Two advances over [0,4] then [4,8] owe exactly the update
        # counts one advance over [0,8] owes (ordering differs: learns
        # batch before syncs within each advance).
        split, whole = RecordingAgent(), RecordingAgent()
        for prev, new in ((0, 4), (4, 8)):
            LearnerCore(
                split, train_interval=4, target_update_steps=2
            ).advance(prev, new)
        LearnerCore(
            whole, train_interval=4, target_update_steps=2
        ).advance(0, 8)
        assert sorted(split.calls) == sorted(whole.calls)

    def test_learning_start_gates_learns_not_syncs(self):
        agent = RecordingAgent()
        core = LearnerCore(
            agent,
            learning_start=100,
            train_interval=1,
            target_update_steps=5,
        )
        core.advance(0, 10)
        assert agent.calls == ["sync"] * 2
        core.advance(10, 100)
        assert "learn" in agent.calls

    def test_can_learn_gate(self):
        agent = RecordingAgent(can_learn=False)
        LearnerCore(agent, train_interval=1).advance(0, 5)
        assert "learn" not in agent.calls

    def test_learns_run_before_syncs(self):
        agent = RecordingAgent()
        LearnerCore(
            agent, train_interval=2, target_update_steps=4
        ).advance(0, 4)
        assert agent.calls == ["learn", "learn", "sync"]

    def test_epsilon_delegates_to_policy(self):
        agent = tiny_agent()
        core = LearnerCore(agent)
        for step in (0, 3, 50):
            assert core.epsilon(step) == agent.policy.epsilon(step)


def _reference_sequential_run(
    env,
    agent,
    *,
    episodes,
    max_steps,
    learning_start,
    target_update_steps,
    train_interval,
):
    """The pre-extraction Trainer inner loop, verbatim cadence."""
    global_step = 0
    for _ep in range(episodes):
        state = env.reset()
        for _t in range(max_steps):
            action, _q = agent.act(state, global_step)
            next_state, reward, done, _info = env.step(action)
            agent.remember(state, action, reward, next_state, done)
            state = next_state
            global_step += 1
            if (
                global_step >= learning_start
                and agent.can_learn()
                and global_step % train_interval == 0
            ):
                agent.learn()
            if global_step % target_update_steps == 0:
                agent.sync_target()
            if done:
                break


def _reference_vector_run(
    venv,
    agent,
    *,
    total_steps,
    learning_start,
    target_update_steps,
    train_interval,
):
    """The pre-extraction VectorTrainer loop, verbatim cadence."""
    states = venv.reset()
    global_step = 0
    n = venv.n_envs
    while global_step < total_steps:
        q = agent.predict_q(states)
        greedy = np.argmax(q, axis=1)
        policy = agent.policy
        eps = policy.epsilon(global_step)
        random_mask = policy.rng.uniform(size=n) < eps
        random_actions = policy.rng.integers(policy.n_actions, size=n)
        actions = np.where(random_mask, random_actions, greedy)
        next_states, rewards, dones, infos = venv.step(actions)
        for i in range(n):
            true_next = (
                infos[i]["terminal_state"] if dones[i] else next_states[i]
            )
            agent.remember(
                states[i],
                int(actions[i]),
                float(rewards[i]),
                true_next,
                bool(dones[i]),
            )
        states = next_states
        prev_step = global_step
        global_step += n
        if global_step >= learning_start and agent.can_learn():
            updates = (
                global_step // train_interval
                - prev_step // train_interval
            )
            for _ in range(updates):
                agent.learn()
        syncs = (
            global_step // target_update_steps
            - prev_step // target_update_steps
        )
        for _ in range(syncs):
            agent.sync_target()


def _assert_agents_bit_equal(a, b):
    assert a.learn_steps == b.learn_steps and a.learn_steps > 0
    assert a.target_syncs == b.target_syncs and a.target_syncs > 0
    for pa, pb in zip(a.q_net.params(), b.q_net.params()):
        np.testing.assert_array_equal(pa, pb)
    for pa, pb in zip(a.target_net.params(), b.target_net.params()):
        np.testing.assert_array_equal(pa, pb)


# Deliberately awkward cadences: off-phase interval, target period not a
# multiple of the episode length, learning starting mid-episode.
CADENCE = dict(learning_start=13, target_update_steps=7, train_interval=3)


class TestBitEqualityPins:
    def test_trainer_matches_pre_extraction_loop(self):
        agent_new = tiny_agent()
        Trainer(
            CountingEnv(),
            agent_new,
            episodes=6,
            max_steps_per_episode=10,
            **CADENCE,
        ).run()

        agent_ref = tiny_agent()
        _reference_sequential_run(
            CountingEnv(),
            agent_ref,
            episodes=6,
            max_steps=10,
            **CADENCE,
        )
        _assert_agents_bit_equal(agent_new, agent_ref)

    @pytest.mark.parametrize("n_envs", [1, 3])
    def test_vector_trainer_matches_pre_extraction_loop(self, n_envs):
        def fns():
            return [
                (lambda h=h: CountingEnv(horizon=h))
                for h in range(9, 9 + n_envs)
            ]

        agent_new = tiny_agent()
        venv = make_vector_env(env_fns=fns())
        try:
            VectorTrainer(agent=agent_new, venv=venv, **CADENCE).run(
                total_steps=60
            )
        finally:
            venv.close()

        agent_ref = tiny_agent()
        venv = make_vector_env(env_fns=fns())
        try:
            _reference_vector_run(
                venv, agent_ref, total_steps=60, **CADENCE
            )
        finally:
            venv.close()
        _assert_agents_bit_equal(agent_new, agent_ref)
