"""Layers and networks: forward semantics + analytic-vs-numeric gradients."""

import numpy as np
import pytest

from repro.nn.dueling import DuelingHead, DuelingMLP
from repro.nn.init import glorot_init, he_init
from repro.nn.layers import Dense, Identity, ReLU, Sigmoid, Tanh
from repro.nn.losses import HuberLoss, MSELoss
from repro.nn.network import MLP, build_mlp

from tests.gradcheck import check_gradients, numerical_gradient


class TestInit:
    def test_he_scale(self):
        w = he_init(1000, 50, rng=0)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_glorot_bounds(self):
        w = glorot_init(100, 100, rng=0)
        limit = np.sqrt(6.0 / 200)
        assert (np.abs(w) <= limit).all()

    def test_deterministic(self):
        np.testing.assert_array_equal(he_init(10, 5, rng=3), he_init(10, 5, rng=3))


class TestDense:
    def test_forward_affine(self, rng):
        d = Dense(3, 2, rng=0)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(d.forward(x), x @ d.w + d.b)

    def test_backward_before_forward_rejected(self):
        d = Dense(2, 2, rng=0)
        with pytest.raises(RuntimeError):
            d.backward(np.zeros((1, 2)))

    def test_grad_accumulates(self, rng):
        d = Dense(3, 2, rng=0)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        d.forward(x)
        d.backward(g)
        first = d.dw.copy()
        d.forward(x)
        d.backward(g)
        np.testing.assert_allclose(d.dw, 2 * first)
        d.zero_grad()
        assert (d.dw == 0).all() and (d.db == 0).all()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, 3, init="magic")


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU, Tanh, Sigmoid, Identity])
    def test_backward_gradcheck(self, cls, rng):
        layer = cls()
        # avoid the ReLU kink: keep |x| away from 0
        x = rng.normal(size=(3, 4))
        x = np.where(np.abs(x) < 0.1, 0.5, x)
        g_out = rng.normal(size=(3, 4))
        y = layer.forward(x, train=True)
        analytic = layer.backward(g_out)

        def f():
            return float((layer.forward(x_var, train=False) * g_out).sum())

        x_var = x.copy()
        num = numerical_gradient(f, x_var)
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-7)

    def test_relu_clamps(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_sigmoid_stable_at_extremes(self):
        out = Sigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestMLP:
    def test_gradcheck_relu_mse(self):
        # Seed chosen so no hidden pre-activation sits on the ReLU kink
        # (finite differences are invalid exactly at the kink).
        gen = np.random.default_rng(0)
        net = build_mlp(5, (8, 6), 3, rng=0)
        x = gen.normal(size=(4, 5))
        t = gen.normal(size=(4, 3))
        worst = check_gradients(net, x, MSELoss(), t)
        assert worst < 1e-4

    def test_gradcheck_tanh_huber(self, rng):
        net = build_mlp(4, (7,), 2, activation="tanh", rng=1)
        x = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 2)) * 3  # exercise the linear branch
        check_gradients(net, x, HuberLoss(0.5), t)

    def test_single_sample_squeeze(self, rng):
        net = build_mlp(4, (6,), 2, rng=2)
        x = rng.normal(size=4)
        out = net.predict(x)
        assert out.shape == (2,)
        batch_out = net.predict(x[None, :])
        np.testing.assert_allclose(out, batch_out[0])

    def test_parameter_count(self):
        net = build_mlp(10, (5, 5), 3, rng=0)
        expected = (10 * 5 + 5) + (5 * 5 + 5) + (5 * 3 + 3)
        assert net.n_parameters() == expected

    def test_clone_independent(self, rng):
        net = build_mlp(3, (4,), 2, rng=0)
        twin = net.clone()
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(net.predict(x), twin.predict(x))
        net.params()[0][0, 0] += 1.0
        assert not np.allclose(net.predict(x), twin.predict(x))

    def test_copy_weights_from(self, rng):
        a = build_mlp(3, (4,), 2, rng=0)
        b = build_mlp(3, (4,), 2, rng=9)
        x = rng.normal(size=(2, 3))
        assert not np.allclose(a.predict(x), b.predict(x))
        b.copy_weights_from(a)
        np.testing.assert_allclose(a.predict(x), b.predict(x))

    def test_copy_weights_architecture_mismatch(self):
        a = build_mlp(3, (4,), 2, rng=0)
        b = build_mlp(3, (5,), 2, rng=0)
        with pytest.raises(ValueError):
            b.copy_weights_from(a)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            build_mlp(3, (4,), 2, activation="swish")

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            MLP([])

    def test_table1_network_shape(self):
        # The paper's architecture at full scale.
        net = build_mlp(16599, (135, 135), 12, rng=0)
        out = net.predict(np.zeros(16599))
        assert out.shape == (12,)


class TestDueling:
    def test_mean_centered_aggregation(self, rng):
        head = DuelingHead(6, 4, rng=0)
        x = rng.normal(size=(3, 6))
        q = head.forward(x, train=False)
        v = head.value.forward(x, train=False)
        a = head.advantage.forward(x, train=False)
        np.testing.assert_allclose(q, v + a - a.mean(axis=1, keepdims=True))

    def test_gradcheck(self, rng):
        net = DuelingMLP(5, (7,), 3, rng=0)
        x = rng.normal(size=(4, 5))
        t = rng.normal(size=(4, 3))
        check_gradients(net, x, MSELoss(), t)

    def test_param_lists_aligned(self):
        head = DuelingHead(4, 3, rng=0)
        assert len(head.params()) == len(head.grads()) == 4
