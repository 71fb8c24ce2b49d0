"""NoisyNet layers and the noisy/Polyak agent options."""

import numpy as np
import pytest

from repro.nn.noisy import (
    NoisyDense,
    build_noisy_mlp,
    resample_network_noise,
    zero_network_noise,
)
from repro.rl.agent import AgentConfig, DQNAgent

from tests.gradcheck import numerical_gradient


class TestNoisyDense:
    def test_zero_noise_is_affine(self, rng):
        layer = NoisyDense(4, 3, rng=0)
        layer.zero_noise()
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.mu_w + layer.mu_b
        )

    def test_noise_perturbs_output(self, rng):
        layer = NoisyDense(4, 3, rng=0)
        x = rng.normal(size=(2, 4))
        layer.resample_noise()
        a = layer.forward(x)
        layer.resample_noise()
        b = layer.forward(x)
        assert not np.allclose(a, b)

    def test_noise_fixed_between_resamples(self, rng):
        layer = NoisyDense(4, 3, rng=0)
        x = rng.normal(size=(2, 4))
        a = layer.forward(x)
        b = layer.forward(x)
        np.testing.assert_allclose(a, b)

    def test_gradcheck_all_parameters(self, rng):
        layer = NoisyDense(3, 2, rng=0)
        layer.resample_noise()
        x = rng.normal(size=(4, 3))
        g_out = rng.normal(size=(4, 2))
        layer.zero_grad()
        layer.forward(x, train=True)
        analytic_in = layer.backward(g_out)
        analytic = [g.copy() for g in layer.grads()]

        def f():
            return float((layer.forward(x, train=False) * g_out).sum())

        for p, g in zip(layer.params(), analytic):
            num = numerical_gradient(f, p)
            np.testing.assert_allclose(g, num, rtol=1e-5, atol=1e-8)
        x_var = x.copy()

        def fx():
            return float((layer.forward(x_var, train=False) * g_out).sum())

        num_in = numerical_gradient(fx, x_var)
        np.testing.assert_allclose(analytic_in, num_in, rtol=1e-5, atol=1e-8)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            NoisyDense(0, 3)


class TestNoisyMlp:
    def test_helpers_affect_all_layers(self, rng):
        net = build_noisy_mlp(4, (6,), 2, rng=0)
        x = rng.normal(size=(2, 4))
        zero_network_noise(net)
        base = net.predict(x)
        resample_network_noise(net)
        assert not np.allclose(net.predict(x), base)
        zero_network_noise(net)
        np.testing.assert_allclose(net.predict(x), base)

    def test_trains_bandit(self, rng):
        from repro.nn.losses import MSELoss
        from repro.nn.optimizers import Adam

        net = build_noisy_mlp(3, (16,), 1, rng=0)
        opt = Adam(net.params(), net.grads(), lr=0.01)
        loss = MSELoss()
        X = rng.normal(size=(128, 3))
        Y = X[:, :1] * 2.0
        for _ in range(300):
            resample_network_noise(net)
            idx = rng.integers(0, 128, size=16)
            net.zero_grad()
            pred = net.forward(X[idx])
            _v, g = loss(pred, Y[idx])
            net.backward(g)
            opt.step()
        zero_network_noise(net)
        final, _ = loss(net.predict(X), Y)
        assert final < 0.5


class TestNoisyAgent:
    def _agent(self, **kw) -> DQNAgent:
        return DQNAgent(
            AgentConfig(
                state_dim=4,
                n_actions=3,
                hidden_sizes=(8,),
                replay_capacity=128,
                minibatch_size=4,
                initial_exploration_steps=0,
                learning_rate=0.01,
                noisy=True,
                seed=0,
                **kw,
            )
        )

    def test_epsilon_always_zero(self):
        agent = self._agent()
        assert agent.policy.epsilon(0) == 0.0
        assert agent.policy.epsilon(10**6) == 0.0

    def test_acting_explores_through_noise(self):
        agent = self._agent()
        s = np.ones(4)
        actions = {agent.act(s, t)[0] for t in range(50)}
        assert len(actions) >= 2  # noise-driven variety without epsilon

    def test_greedy_is_deterministic(self):
        agent = self._agent()
        s = np.ones(4)
        assert len({agent.greedy_action(s) for _ in range(10)}) == 1

    def test_learns(self, rng):
        agent = self._agent()
        for _ in range(60):
            s = rng.normal(size=4)
            a = int(rng.integers(3))
            agent.remember(s, a, 1.0 if a == 0 else -1.0, s, True)
        for _ in range(100):
            info = agent.learn()
        assert np.isfinite(info.loss)

    def test_noisy_dueling_rejected(self):
        with pytest.raises(ValueError):
            self._agent(dueling=True)


class TestPolyakUpdates:
    def test_soft_update_moves_target(self, rng):
        agent = DQNAgent(
            AgentConfig(
                state_dim=4,
                n_actions=2,
                hidden_sizes=(8,),
                replay_capacity=64,
                minibatch_size=4,
                initial_exploration_steps=0,
                learning_rate=0.05,
                target_update_tau=0.1,
                seed=0,
            )
        )
        for _ in range(20):
            s = rng.normal(size=4)
            agent.remember(s, 0, 1.0, s, True)
        s = np.ones(4)
        before_gap = np.abs(
            agent.q_net.predict(s) - agent.target_net.predict(s)
        ).max()
        for _ in range(30):
            agent.learn()
        online = agent.q_net.predict(s)
        target = agent.target_net.predict(s)
        # The target tracks the online net without hard syncs.
        assert agent.target_syncs == 0
        gap = np.abs(online - target).max()
        assert gap < 1.0  # tracked closely despite 30 updates

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            AgentConfig(state_dim=2, n_actions=2, target_update_tau=0.0)
        with pytest.raises(ValueError):
            AgentConfig(state_dim=2, n_actions=2, target_update_tau=1.5)

    def test_tau_one_equals_hard_sync(self, rng):
        agent = DQNAgent(
            AgentConfig(
                state_dim=4,
                n_actions=2,
                hidden_sizes=(8,),
                replay_capacity=64,
                minibatch_size=4,
                initial_exploration_steps=0,
                learning_rate=0.01,
                target_update_tau=1.0,
                seed=0,
            )
        )
        for _ in range(10):
            s = rng.normal(size=4)
            agent.remember(s, 0, 1.0, s, True)
        agent.learn()
        s = np.ones(4)
        np.testing.assert_allclose(
            agent.q_net.predict(s), agent.target_net.predict(s)
        )
