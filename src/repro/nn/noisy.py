"""NoisyNet layers (Fortunato et al. 2018; Rainbow component).

Noisy linear layers replace epsilon-greedy exploration with learned,
state-conditional parameter noise: ``w = mu_w + sigma_w * eps_w`` with
factorized Gaussian noise resampled per acting step.  Because
``sigma`` is trained, the network *learns how much to explore* and
anneals its own noise -- one of the Rainbow upgrades the paper's
Section 5 points to.

The layer degrades gracefully: with noise frozen at zero it is exactly a
:class:`~repro.nn.layers.Dense` layer, which the tests exploit.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer
from repro.utils.rng import SeedLike, as_generator


def _scaled_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Factorized-noise helper: f(x) = sign(x) * sqrt(|x|)."""
    x = rng.normal(size=n)
    return np.sign(x) * np.sqrt(np.abs(x))


class NoisyDense(Layer):
    """Factorized-Gaussian noisy linear layer.

    Parameters are (mu_w, sigma_w, mu_b, sigma_b); the effective weights
    for a forward pass are ``mu + sigma * eps`` where ``eps`` is the
    outer product of per-input and per-output noise vectors
    (:func:`resample_noise`).  Gradients flow to both mu and sigma.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        sigma0: float = 0.5,
        rng: SeedLike = None,
    ):
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        gen = as_generator(rng)
        bound = 1.0 / np.sqrt(in_features)
        self.mu_w = gen.uniform(-bound, bound, size=(in_features, out_features))
        self.sigma_w = np.full(
            (in_features, out_features), sigma0 / np.sqrt(in_features)
        )
        self.mu_b = gen.uniform(-bound, bound, size=out_features)
        self.sigma_b = np.full(out_features, sigma0 / np.sqrt(in_features))
        self.d_mu_w = np.zeros_like(self.mu_w)
        self.d_sigma_w = np.zeros_like(self.sigma_w)
        self.d_mu_b = np.zeros_like(self.mu_b)
        self.d_sigma_b = np.zeros_like(self.sigma_b)
        self._noise_rng = as_generator(gen.integers(2**63))
        self._eps_in = np.zeros(in_features)
        self._eps_out = np.zeros(out_features)
        self._x: np.ndarray | None = None
        self.resample_noise()

    @property
    def in_features(self) -> int:
        """Input width."""
        return self.mu_w.shape[0]

    @property
    def out_features(self) -> int:
        """Output width."""
        return self.mu_w.shape[1]

    def resample_noise(self) -> None:
        """Draw fresh factorized noise (call once per acting step)."""
        self._eps_in = _scaled_noise(self._noise_rng, self.in_features)
        self._eps_out = _scaled_noise(self._noise_rng, self.out_features)

    def zero_noise(self) -> None:
        """Freeze noise at zero (deterministic evaluation mode)."""
        self._eps_in = np.zeros(self.in_features)
        self._eps_out = np.zeros(self.out_features)

    def _eps_w(self) -> np.ndarray:
        return np.outer(self._eps_in, self._eps_out)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if train:
            self._x = x
        w = self.mu_w + self.sigma_w * self._eps_w()
        b = self.mu_b + self.sigma_b * self._eps_out
        return x @ w + b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward(train=True)")
        g = np.asarray(grad_out, dtype=float)
        eps_w = self._eps_w()
        grad_w = self._x.T @ g
        self.d_mu_w += grad_w
        self.d_sigma_w += grad_w * eps_w
        grad_b = g.sum(axis=0)
        self.d_mu_b += grad_b
        self.d_sigma_b += grad_b * self._eps_out
        return g @ (self.mu_w + self.sigma_w * eps_w).T

    def params(self) -> list[np.ndarray]:
        return [self.mu_w, self.sigma_w, self.mu_b, self.sigma_b]

    def grads(self) -> list[np.ndarray]:
        return [self.d_mu_w, self.d_sigma_w, self.d_mu_b, self.d_sigma_b]


def resample_network_noise(net) -> None:
    """Resample every NoisyDense layer in an MLP (no-op for others)."""
    for layer in net.layers:
        if isinstance(layer, NoisyDense):
            layer.resample_noise()


def zero_network_noise(net) -> None:
    """Freeze every NoisyDense layer's noise (evaluation mode)."""
    for layer in net.layers:
        if isinstance(layer, NoisyDense):
            layer.zero_noise()


def build_noisy_mlp(
    input_dim: int,
    hidden_sizes,
    output_dim: int,
    *,
    sigma0: float = 0.5,
    rng: SeedLike = None,
):
    """ReLU MLP whose linear layers are all noisy."""
    from repro.nn.layers import ReLU
    from repro.nn.network import MLP

    gen = as_generator(rng)
    layers: list[Layer] = []
    prev = input_dim
    for width in hidden_sizes:
        layers.append(NoisyDense(prev, width, sigma0=sigma0, rng=gen))
        layers.append(ReLU())
        prev = width
    layers.append(NoisyDense(prev, output_dim, sigma0=sigma0, rng=gen))
    return MLP(layers)
