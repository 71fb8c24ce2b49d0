"""DQN agent: learning mechanics, target network, variants.

:class:`TestAgentContract` holds what every run-level ``variant``
promises under both replay layouts (raw and compact): acting, finite
learn steps, and a mid-run ``state_dict`` that resumes bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import PAPER_CONFIG, VARIANTS, ci_scale_config
from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.distributional import DistributionalConfig, project_target
from repro.rl.prioritized_replay import PrioritizedReplayMemory


def small_agent(**overrides) -> DQNAgent:
    cfg = AgentConfig(
        state_dim=6,
        n_actions=3,
        hidden_sizes=(16,),
        replay_capacity=256,
        minibatch_size=8,
        initial_exploration_steps=0,
        epsilon_start=1.0,
        epsilon_final=0.0,
        epsilon_decay=0.01,
        learning_rate=0.01,
        seed=0,
        **overrides,
    )
    return DQNAgent(cfg)


def feed_transitions(agent, n=64, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = rng.normal(size=6)
        a = int(rng.integers(3))
        # Reward depends on action: action 1 is best everywhere.
        r = 1.0 if a == 1 else -1.0
        s2 = rng.normal(size=6)
        agent.remember(s, a, r, s2, bool(rng.uniform() < 0.2))


class TestAgentConfig:
    def test_from_run_config_maps_table1(self):
        ac = AgentConfig.from_run_config(PAPER_CONFIG, 16599, 12)
        assert ac.hidden_sizes == (135, 135)
        assert ac.gamma == 0.99
        assert ac.learning_rate == 0.00025
        assert ac.minibatch_size == 32
        assert ac.replay_capacity == 400000
        assert not ac.double and not ac.dueling

    def test_variant_flags(self):
        ddqn = AgentConfig.from_run_config(
            PAPER_CONFIG.replace(variant="dueling-ddqn"), 10, 4
        )
        assert ddqn.double and ddqn.dueling


class TestActing:
    def test_q_shape(self):
        agent = small_agent()
        q = agent.predict_q(np.zeros(6))
        assert q.shape == (3,)

    def test_act_returns_action_and_q(self):
        agent = small_agent()
        a, q = agent.act(np.zeros(6), global_step=10**6)
        assert 0 <= a < 3
        assert q.shape == (3,)
        assert a == int(np.argmax(q))  # epsilon fully decayed

    def test_greedy_action_matches_argmax(self):
        agent = small_agent()
        s = np.ones(6)
        assert agent.greedy_action(s) == int(np.argmax(agent.predict_q(s)))


class TestLearning:
    def test_can_learn_threshold(self):
        agent = small_agent()
        assert not agent.can_learn()
        feed_transitions(agent, n=8)
        assert agent.can_learn()

    def test_learn_reduces_td_error_on_bandit(self):
        # Supervised sanity: with gamma=0 the target is just the reward,
        # so the Q-network should learn "action 1 good, others bad".
        agent = small_agent(gamma=0.0)
        feed_transitions(agent, n=200)
        for _ in range(300):
            agent.learn()
        rng = np.random.default_rng(99)
        states = rng.normal(size=(20, 6))
        q = np.stack([agent.predict_q(s) for s in states])
        assert (np.argmax(q, axis=1) == 1).mean() > 0.9

    def test_learn_info_fields(self):
        agent = small_agent()
        feed_transitions(agent)
        info = agent.learn()
        assert np.isfinite(info.loss)
        assert np.isfinite(info.max_q)
        assert info.mean_td_error >= 0.0

    def test_terminal_states_bootstrap_blocked(self):
        # All transitions terminal with reward 0 -> targets are 0, Q
        # collapses toward 0 regardless of gamma.
        agent = small_agent(gamma=0.99)
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.normal(size=6)
            agent.remember(s, int(rng.integers(3)), 0.0, s, True)
        for _ in range(400):
            agent.learn()
        q = agent.predict_q(rng.normal(size=6))
        assert np.abs(q).max() < 0.5

    def test_learn_steps_counted(self):
        agent = small_agent()
        feed_transitions(agent)
        agent.learn()
        agent.learn()
        assert agent.learn_steps == 2


class TestTargetNetwork:
    def test_starts_synced(self):
        agent = small_agent()
        s = np.ones(6)
        np.testing.assert_allclose(
            agent.q_net.predict(s), agent.target_net.predict(s)
        )

    def test_diverges_then_syncs(self):
        agent = small_agent()
        feed_transitions(agent)
        for _ in range(20):
            agent.learn()
        s = np.ones(6)
        assert not np.allclose(
            agent.q_net.predict(s), agent.target_net.predict(s)
        )
        agent.sync_target()
        np.testing.assert_allclose(
            agent.q_net.predict(s), agent.target_net.predict(s)
        )
        assert agent.target_syncs == 1


class TestVariants:
    def test_double_runs(self):
        agent = small_agent(double=True)
        feed_transitions(agent)
        info = agent.learn()
        assert np.isfinite(info.loss)

    def test_dueling_network_type(self):
        agent = small_agent(dueling=True)
        q = agent.predict_q(np.zeros(6))
        assert q.shape == (3,)
        feed_transitions(agent)
        assert np.isfinite(agent.learn().loss)

    def test_prioritized_replay_used(self):
        agent = small_agent(prioritized=True)
        assert isinstance(agent.replay, PrioritizedReplayMemory)
        feed_transitions(agent)
        agent.learn()  # priorities updated without error

    def test_double_differs_from_vanilla(self):
        # Same seed, same data: DDQN target computation must diverge from
        # vanilla DQN after enough updates.
        a = small_agent(double=False)
        b = small_agent(double=True)
        feed_transitions(a, seed=7)
        feed_transitions(b, seed=7)
        for _ in range(100):
            a.learn()
            b.learn()
        s = np.ones(6)
        assert not np.allclose(a.predict_q(s), b.predict_q(s), atol=1e-3)


class TestDistributional:
    def make(self) -> DQNAgent:
        cfg = AgentConfig(
            state_dim=6,
            n_actions=3,
            hidden_sizes=(16,),
            replay_capacity=256,
            minibatch_size=8,
            initial_exploration_steps=0,
            epsilon_decay=0.01,
            learning_rate=0.01,
            distributional=DistributionalConfig(
                n_atoms=11, v_min=-2.0, v_max=2.0
            ),
            seed=0,
        )
        return DQNAgent(cfg)

    def test_distribution_normalized(self):
        agent = self.make()
        probs = agent.head.probabilities(agent.q_net.predict(np.zeros((4, 6))))
        assert probs.shape == (4, 3, 11)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    def test_predict_q_within_support(self):
        agent = self.make()
        q = agent.predict_q(np.zeros(6))
        assert q.shape == (3,)
        assert (q >= -2.0).all() and (q <= 2.0).all()

    def test_projection_preserves_mass(self):
        agent = self.make()
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(11), size=5)
        m = project_target(
            agent.head,
            rewards=rng.normal(size=5),
            terminals=np.array([True, False, True, False, False]),
            next_probs=probs,
            discounts=np.full(5, 0.99),
        )
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_terminal_projection_is_reward_spike(self):
        agent = self.make()
        m = project_target(
            agent.head,
            rewards=np.array([1.0]),
            terminals=np.array([True]),
            next_probs=np.full((1, 11), 1 / 11),
            discounts=np.array([0.99]),
        )
        # All mass concentrated around z = 1.0 (atoms at -2..2, step .4).
        support = agent.head.support
        mean = float(m[0] @ support)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_learns_bandit(self):
        agent = self.make()
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = rng.normal(size=6)
            a = int(rng.integers(3))
            agent.remember(s, a, 1.0 if a == 2 else -1.0, s, True)
        for _ in range(300):
            agent.learn()
        states = rng.normal(size=(20, 6))
        picks = [agent.greedy_action(s) for s in states]
        assert np.mean(np.array(picks) == 2) > 0.9

    def test_invalid_dist_config(self):
        with pytest.raises(ValueError):
            DistributionalConfig(n_atoms=1)
        with pytest.raises(ValueError):
            DistributionalConfig(v_min=1.0, v_max=-1.0)

    def test_sync_target(self):
        agent = self.make()
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.normal(size=6)
            agent.remember(s, 0, 1.0, s, True)
        for _ in range(10):
            agent.learn()
        agent.sync_target()
        s = np.ones(6)
        np.testing.assert_allclose(
            agent.q_net.predict(s), agent.target_net.predict(s)
        )


# ---------------------------------------------------------------------------
# the agent contract: every variant, raw and compact

STATE_DIM, PREFIX, N_ACTIONS = 14, 10, 3
EPISODE = 6
#: Steps before the mid-run snapshot (an episode boundary) and after.
HALF = 5 * EPISODE

CONTRACT_CASES = [
    pytest.param(variant, compact, id=f"{variant}-{layout}")
    for variant in VARIANTS
    for compact, layout in ((False, "raw"), (True, "compact"))
]


def contract_agent(variant: str, compact: bool) -> DQNAgent:
    """The ``variant`` agent a run builds, shrunk to a toy state."""
    cfg = dataclasses.replace(
        AgentConfig.from_run_config(
            ci_scale_config(episodes=2, variant=variant),
            STATE_DIM,
            N_ACTIONS,
        ),
        hidden_sizes=(16,),
        replay_capacity=64,
        minibatch_size=8,
        initial_exploration_steps=4,
        epsilon_decay=0.02,
        learning_rate=0.01,
    )
    static = (
        np.linspace(-3.0, 3.0, PREFIX).astype(np.float32) if compact else None
    )
    return DQNAgent(cfg, static_state=static)


def emitted_state(t: int, compact: bool) -> np.ndarray:
    """What the env emits at step ``t``: a float32 tail in compact mode."""
    x = np.random.default_rng([7, t]).standard_normal(STATE_DIM)
    if compact:
        x = x[PREFIX:].astype(np.float32)
    return x


def drive(agent: DQNAgent, compact: bool, start: int, stop: int) -> list:
    """Steps ``start .. stop`` of a fixed-length-episode run; returns
    every step's (action, q) and every learn step's loss."""
    trace = []
    for t in range(start, stop):
        state = emitted_state(t, compact)
        action, q = agent.act(state, t)
        trace.append((action, q.copy()))
        done = (t + 1) % EPISODE == 0
        reward = 1.0 if action == t % N_ACTIONS else -1.0
        agent.remember(
            state, action, reward, emitted_state(t + 1, compact), done
        )
        if done:
            agent.flush_episode()
        if agent.can_learn():
            trace.append(agent.learn().loss)
        if (t + 1) % 10 == 0:
            agent.sync_target()
    return trace


def _assert_tree_equal(a, b, path="agent"):
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for k in a:
            _assert_tree_equal(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        assert np.array_equal(a, b, equal_nan=True), path
    else:
        assert a == b, path


@pytest.mark.parametrize("variant,compact", CONTRACT_CASES)
class TestAgentContract:
    def test_act_returns_n_actions_values(self, variant, compact):
        agent = contract_agent(variant, compact)
        action, q = agent.act(emitted_state(0, compact), 0)
        assert q.shape == (N_ACTIONS,)
        assert 0 <= action < N_ACTIONS
        assert agent.greedy_action(emitted_state(1, compact)) in range(
            N_ACTIONS
        )

    def test_learn_steps_give_finite_loss(self, variant, compact):
        agent = contract_agent(variant, compact)
        losses = [
            x for x in drive(agent, compact, 0, HALF) if isinstance(x, float)
        ]
        assert agent.learn_steps == len(losses) > 0
        assert np.isfinite(losses).all()

    def test_state_dict_resumes_bit_for_bit(self, variant, compact):
        ref = contract_agent(variant, compact)
        ref_trace = drive(ref, compact, 0, 2 * HALF)

        first = contract_agent(variant, compact)
        head_trace = drive(first, compact, 0, HALF)
        resumed = contract_agent(variant, compact)
        resumed.load_state_dict(first.state_dict())
        trace = head_trace + drive(resumed, compact, HALF, 2 * HALF)

        assert len(trace) == len(ref_trace)
        for got, want in zip(trace, ref_trace):
            if isinstance(want, float):
                assert got == want
            else:
                assert got[0] == want[0]
                np.testing.assert_array_equal(got[1], want[1])
        _assert_tree_equal(resumed.state_dict(), ref.state_dict())


class TestDistributionalHead:
    @pytest.mark.parametrize("flag", ["dueling", "double"])
    def test_rejects_heads_it_would_ignore(self, flag):
        with pytest.raises(ValueError, match="distributional"):
            AgentConfig(
                state_dim=4,
                n_actions=2,
                distributional=DistributionalConfig(),
                **{flag: True},
            )

    def test_rejects_a_loss_it_would_ignore(self):
        with pytest.raises(ValueError, match="distributional.*huber"):
            AgentConfig(
                state_dim=4,
                n_actions=2,
                distributional=DistributionalConfig(),
                loss="huber",
            )

    def test_runs_in_float64_and_records_atoms(self):
        agent = contract_agent("distributional", compact=True)
        assert agent.dtype == np.float64
        assert agent.q_net.params()[0].dtype == np.float64
        state = agent.state_dict()
        assert state["n_atoms"] == 51 and state["dtype"] == "float64"
        scalar = contract_agent("dqn", compact=True)
        assert "n_atoms" not in scalar.state_dict()

    def test_atom_count_is_checked_on_load(self):
        from repro.nn.checkpoints import CheckpointMismatchError

        state = contract_agent("distributional", compact=False).state_dict()
        with pytest.raises(CheckpointMismatchError, match="n_atoms"):
            contract_agent("dqn", compact=False).load_state_dict(
                {**state, "dtype": "float32"}
            )

    def test_loads_pre_fold_checkpoint(self, tmp_path):
        # C51 states written before the categorical head joined DQNAgent
        # record n_atoms but no dtype; upgrade_checkpoint reads them as
        # the float64 they were.
        from repro.nn.checkpoints import CheckpointMismatchError
        from repro.runtime import Checkpoint
        from repro.runtime.loop import upgrade_checkpoint

        agent = contract_agent("distributional", compact=False)
        drive(agent, False, 0, HALF)
        old = agent.state_dict()
        del old["dtype"]
        path = tmp_path / "old.npz"
        Checkpoint(state={"agent": old}, meta={"global_step": HALF}).write(
            path
        )

        with pytest.raises(CheckpointMismatchError, match="dtype"):
            contract_agent("distributional", compact=False).load_state_dict(
                Checkpoint.load(path).state["agent"]
            )
        fresh = contract_agent("distributional", compact=False)
        fresh.load_state_dict(
            upgrade_checkpoint(Checkpoint.load(path)).state["agent"]
        )
        _assert_tree_equal(fresh.state_dict(), agent.state_dict())
