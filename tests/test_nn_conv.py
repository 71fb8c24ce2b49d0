"""Convolutional stack: shapes, gradients, pooling, the CNN factory."""

import numpy as np
import pytest

from repro.nn.conv import Conv2D, Flatten, MaxPool2D, Reshape, build_cnn
from repro.nn.losses import MSELoss

from tests.gradcheck import check_gradients, numerical_gradient


class TestReshapeFlatten:
    def test_roundtrip(self, rng):
        r = Reshape((2, 3, 4))
        x = rng.normal(size=(5, 24))
        y = r.forward(x)
        assert y.shape == (5, 2, 3, 4)
        g = r.backward(y)
        assert g.shape == (5, 24)
        np.testing.assert_array_equal(g, x)

    def test_flatten(self, rng):
        f = Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        y = f.forward(x)
        assert y.shape == (3, 32)
        g = f.backward(y)
        np.testing.assert_array_equal(g, x)

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Flatten().backward(np.zeros((1, 4)))


class TestConv2DForward:
    def test_valid_output_shape(self):
        conv = Conv2D(2, 5, kernel_size=3, stride=1, padding="valid", rng=0)
        out = conv.forward(np.zeros((4, 2, 8, 8)))
        assert out.shape == (4, 5, 6, 6)
        assert conv.output_shape(8, 8) == (5, 6, 6)

    def test_same_output_shape(self):
        conv = Conv2D(1, 3, kernel_size=3, stride=1, padding="same", rng=0)
        out = conv.forward(np.zeros((2, 1, 7, 7)))
        assert out.shape == (2, 3, 7, 7)

    def test_stride(self):
        conv = Conv2D(1, 2, kernel_size=3, stride=2, padding="valid", rng=0)
        out = conv.forward(np.zeros((1, 1, 9, 9)))
        assert out.shape == (1, 2, 4, 4)

    def test_matches_manual_convolution(self, rng):
        conv = Conv2D(1, 1, kernel_size=2, stride=1, padding="valid", rng=0)
        conv.w[...] = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        conv.b[...] = 0.5
        x = rng.normal(size=(1, 1, 3, 3))
        out = conv.forward(x)
        for i in range(2):
            for j in range(2):
                patch = x[0, 0, i : i + 2, j : j + 2]
                expected = (patch * conv.w[0, 0]).sum() + 0.5
                assert out[0, 0, i, j] == pytest.approx(expected)

    def test_channel_mismatch_rejected(self):
        conv = Conv2D(3, 4, rng=0)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 2, 8, 8)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            Conv2D(1, 1, padding="reflect")

    def test_translation_equivariance_interior(self, rng):
        # Shifting the input by one pixel shifts the 'valid' output.
        conv = Conv2D(1, 1, kernel_size=3, stride=1, padding="valid", rng=1)
        x = np.zeros((1, 1, 10, 10))
        x[0, 0, 4, 4] = 1.0
        y1 = conv.forward(x)
        x2 = np.roll(x, 1, axis=3)
        y2 = conv.forward(x2)
        np.testing.assert_allclose(y2[0, 0, :, 1:], y1[0, 0, :, :-1], atol=1e-12)


class TestConv2DBackward:
    def _gradcheck_input(self, conv, x, rng):
        g_out_shape = conv.forward(x, train=True).shape
        g_out = rng.normal(size=g_out_shape)
        analytic = conv.backward(g_out)

        x_var = x.copy()

        def f():
            return float((conv.forward(x_var, train=False) * g_out).sum())

        num = numerical_gradient(f, x_var)
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-8)

    def test_input_gradient_valid(self, rng):
        conv = Conv2D(2, 3, kernel_size=2, stride=1, padding="valid", rng=0)
        self._gradcheck_input(conv, rng.normal(size=(2, 2, 5, 5)), rng)

    def test_input_gradient_same_stride2(self, rng):
        conv = Conv2D(1, 2, kernel_size=3, stride=2, padding="same", rng=0)
        self._gradcheck_input(conv, rng.normal(size=(1, 1, 6, 6)), rng)

    def test_weight_gradient(self, rng):
        conv = Conv2D(1, 2, kernel_size=2, stride=1, rng=0)
        x = rng.normal(size=(2, 1, 4, 4))
        g_out = rng.normal(size=conv.forward(x).shape)
        conv.zero_grad()
        conv.forward(x, train=True)
        conv.backward(g_out)
        analytic = conv.dw.copy()

        def f():
            return float((conv.forward(x, train=False) * g_out).sum())

        num = numerical_gradient(f, conv.w)
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-8)

    def test_grad_accumulates_and_resets(self, rng):
        conv = Conv2D(1, 1, kernel_size=2, rng=0)
        x = rng.normal(size=(1, 1, 4, 4))
        g = rng.normal(size=(1, 1, 3, 3))
        conv.forward(x)
        conv.backward(g)
        first = conv.dw.copy()
        conv.forward(x)
        conv.backward(g)
        np.testing.assert_allclose(conv.dw, 2 * first)
        conv.zero_grad()
        assert (conv.dw == 0).all()


class TestMaxPool2D:
    def test_forward_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_ragged_border_truncated(self):
        pool = MaxPool2D(2)
        out = pool.forward(np.zeros((1, 1, 5, 5)))
        assert out.shape == (1, 1, 2, 2)

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool.forward(x, train=True)
        g = pool.backward(np.array([[[[10.0]]]]))
        np.testing.assert_array_equal(
            g, [[[[0.0, 0.0], [0.0, 10.0]]]]
        )

    def test_backward_ties_conserve_gradient(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2))
        pool.forward(x, train=True)
        g = pool.backward(np.array([[[[8.0]]]]))
        assert g.sum() == pytest.approx(8.0)

    def test_gradcheck(self, rng):
        pool = MaxPool2D(2)
        # Distinct values avoid ties (subgradient ambiguity).
        x = rng.permutation(64).astype(float).reshape(1, 1, 8, 8)
        g_out = rng.normal(size=(1, 1, 4, 4))
        pool.forward(x, train=True)
        analytic = pool.backward(g_out)
        x_var = x.copy()

        def f():
            return float((pool.forward(x_var, train=False) * g_out).sum())

        num = numerical_gradient(f, x_var)
        np.testing.assert_allclose(analytic, num, rtol=1e-5, atol=1e-8)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)


class TestBuildCnn:
    def test_end_to_end_shapes(self, rng):
        net = build_cnn((6, 16, 16), 12, conv_channels=(8, 16), hidden=32, rng=0)
        x = rng.normal(size=(4, 6 * 16 * 16))
        out = net.predict(x)
        assert out.shape == (4, 12)

    def test_full_gradcheck(self, rng):
        net = build_cnn(
            (2, 6, 6), 3, conv_channels=(3,), hidden=8, pool=2, rng=0
        )
        gen = np.random.default_rng(2)
        x = gen.normal(size=(2, 2 * 6 * 6))
        t = gen.normal(size=(2, 3))
        check_gradients(net, x, MSELoss(), t, rtol=1e-3)

    def test_trains_on_toy_images(self, rng):
        # Classify whether the bright blob is left or right.
        from repro.nn.optimizers import Adam

        net = build_cnn((1, 8, 8), 2, conv_channels=(4,), hidden=16, rng=0)
        opt = Adam(net.params(), net.grads(), lr=0.01)
        loss = MSELoss()
        X = np.zeros((64, 1, 8, 8))
        Y = np.zeros((64, 2))
        for k in range(64):
            col = rng.integers(0, 8)
            X[k, 0, rng.integers(0, 8), col] = 1.0
            Y[k, int(col >= 4)] = 1.0
        Xf = X.reshape(64, -1)
        for _ in range(150):
            idx = rng.integers(0, 64, size=16)
            net.zero_grad()
            pred = net.forward(Xf[idx])
            _v, g = loss(pred, Y[idx])
            net.backward(g)
            opt.step()
        acc = (np.argmax(net.predict(Xf), axis=1) == np.argmax(Y, axis=1)).mean()
        assert acc > 0.9

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        from repro.nn.checkpoints import load_network, save_network

        net = build_cnn((2, 8, 8), 4, conv_channels=(3,), hidden=8, rng=0)
        p = tmp_path / "cnn.npz"
        save_network(net, p)
        other = build_cnn((2, 8, 8), 4, conv_channels=(3,), hidden=8, rng=9)
        load_network(other, p)
        x = rng.normal(size=(2, 2 * 8 * 8))
        np.testing.assert_allclose(net.predict(x), other.predict(x))

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            build_cnn((1, 8, 8), 2, activation="gelu")
