"""Sequential MLP container and the Table 1 network factory."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import ACTIVATIONS, Dense, Layer
from repro.utils.rng import SeedLike, as_generator


class MLP:
    """A sequential stack of layers with shared forward/backward plumbing."""

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Run the stack; 1-D inputs are treated as a single sample.

        Layers own their compute dtype and output workspaces (see
        :mod:`repro.nn.layers`): the result may be a view of a reused
        buffer that the next forward call of the same batch size
        overwrites.
        """
        h = np.asarray(x)
        squeeze = h.ndim == 1
        if squeeze:
            h = h[None, :]
        for layer in self.layers:
            h = layer.forward(h, train=train)
        return h[0] if squeeze else h

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference forward pass (no caches)."""
        return self.forward(x, train=False)

    __call__ = predict

    def backward(
        self, grad_out: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Backpropagate from the output gradient; returns input gradient.

        ``need_input_grad=False`` lets a :class:`Dense` first layer skip
        its input-gradient matmul (and returns ``None``) — the learner's
        hot path, where nothing sits below the network.
        """
        g = np.asarray(grad_out)
        if g.ndim == 1:
            g = g[None, :]
        first = self.layers[0]
        for layer in reversed(self.layers):
            if (
                layer is first
                and not need_input_grad
                and isinstance(layer, Dense)
            ):
                return layer.backward(g, need_input_grad=False)
            g = layer.backward(g)
        return g

    def params(self) -> list[np.ndarray]:
        """All trainable arrays, layer order."""
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        """All gradient arrays, aligned with :meth:`params`."""
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grad(self) -> None:
        """Reset all accumulated gradients."""
        for layer in self.layers:
            layer.zero_grad()

    def weights_changed(self, live_only: bool = False) -> None:
        """Tell every layer its parameters were rewritten in place.

        Call after any write through ``params()`` that bypasses
        :meth:`copy_weights_from` / ``load_network_arrays`` (an
        optimizer step, a Polyak update, a shared-memory fetch); a
        constant-prefix :class:`Dense` layer caches a bias derived from
        its weights.  ``live_only=True`` only after an optimizer step
        that honoured :meth:`live_units` (see
        :meth:`repro.nn.layers.Layer.weights_changed`).
        """
        for layer in self.layers:
            layer.weights_changed(live_only)

    def live_units(self) -> list[np.ndarray | None]:
        """Live-unit masks aligned with :meth:`params` (see
        :meth:`repro.nn.layers.Layer.live_units`)."""
        return [m for layer in self.layers for m in layer.live_units()]

    def n_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.params())

    def copy_weights_from(self, other: "MLP") -> None:
        """In-place copy of ``other``'s parameters (target-network sync)."""
        mine, theirs = self.params(), other.params()
        if len(mine) != len(theirs):
            raise ValueError("network architectures differ")
        for dst, src in zip(mine, theirs):
            if dst.shape != src.shape:
                raise ValueError(
                    f"parameter shape mismatch {dst.shape} vs {src.shape}"
                )
            dst[...] = src
        self.weights_changed()

    def clone(self) -> "MLP":
        """Structural copy with identical weights (fresh arrays)."""
        import copy

        twin = copy.deepcopy(self)
        twin.zero_grad()
        return twin

    def __repr__(self) -> str:
        inner = ", ".join(repr(l) for l in self.layers)
        return f"MLP([{inner}], params={self.n_parameters()})"


def build_mlp(
    input_dim: int,
    hidden_sizes: Sequence[int],
    output_dim: int,
    *,
    activation: str = "relu",
    rng: SeedLike = None,
    dtype=np.float64,
) -> MLP:
    """The paper's architecture: Dense->act per hidden layer, linear head.

    Table 1 settings correspond to ``hidden_sizes=(135, 135)``,
    ``activation="relu"``, ``output_dim=12``.  ``dtype`` selects the
    compute precision of every layer; the DQN agent builds float32
    networks (the library default stays float64 so finite-difference
    gradient checks remain valid).  Weights are initialized in float64
    and then cast, so a float32 network starts from the same draws as
    its float64 twin under the same seed.
    """
    try:
        act_cls = ACTIVATIONS[activation]
    except KeyError:
        raise ValueError(f"unknown activation {activation!r}") from None
    init = "he" if activation == "relu" else "glorot"
    gen = as_generator(rng)
    layers: list[Layer] = []
    prev = input_dim
    for width in hidden_sizes:
        layers.append(Dense(prev, width, init=init, rng=gen, dtype=dtype))
        layers.append(act_cls(dtype=dtype))
        prev = width
    layers.append(Dense(prev, output_dim, init=init, rng=gen, dtype=dtype))
    return MLP(layers)
