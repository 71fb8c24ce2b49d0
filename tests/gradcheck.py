"""Finite-difference gradient checking (test-only).

The tests verify every layer's analytic backward pass against central
differences -- the standard correctness oracle for hand-written backprop.
"""

from __future__ import annotations

import numpy as np

from repro.nn.network import MLP


def numerical_gradient(
    f, param: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``param``.

    ``param`` is perturbed in place and restored; ``f`` must depend on it
    by reference (true for network parameters).
    """
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + eps
        f_plus = f()
        param[idx] = orig - eps
        f_minus = f()
        param[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def check_gradients(
    net: MLP,
    x: np.ndarray,
    loss_fn,
    target: np.ndarray,
    *,
    eps: float = 1e-6,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> float:
    """Max relative error between analytic and numerical gradients.

    Runs one forward/backward with ``loss_fn`` (a ``(pred, target) ->
    (value, grad)`` callable), then compares every parameter gradient to
    the finite-difference estimate.  Raises ``AssertionError`` beyond the
    tolerances; returns the worst relative error observed.
    """
    net.zero_grad()
    pred = net.forward(x, train=True)
    _value, grad_out = loss_fn(pred, target)
    net.backward(grad_out)
    analytic = [g.copy() for g in net.grads()]

    def scalar_loss() -> float:
        # The finite differences poke parameters in place.
        net.weights_changed()
        p = net.forward(x, train=False)
        value, _g = loss_fn(p, target)
        return value

    worst = 0.0
    for p, g in zip(net.params(), analytic):
        num = numerical_gradient(scalar_loss, p, eps=eps)
        denom = np.maximum(np.abs(num) + np.abs(g), 1e-12)
        rel = np.abs(num - g) / denom
        mask = np.abs(num - g) > atol
        if mask.any():
            worst = max(worst, float(rel[mask].max()))
            if (rel[mask] > rtol).any():
                raise AssertionError(
                    f"gradient mismatch: max rel err {rel[mask].max():.2e} "
                    f"(analytic vs numerical)"
                )
    return worst
