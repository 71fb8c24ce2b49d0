"""Network layers with explicit forward/backward passes.

Each layer caches exactly what its backward pass needs and exposes
``params()`` / ``grads()`` as aligned lists of arrays so optimizers can
update in place without knowing layer internals.

Layers carry an explicit ``dtype`` (default float64, which the
finite-difference gradient checker needs); the DQN hot path builds
float32 networks.  :class:`Dense` and :class:`ReLU` reuse preallocated
forward/backward workspaces keyed by batch-row count, so steady-state
training allocates no new activation arrays.  **A layer's forward output
is a view of that workspace and is overwritten by its next forward call
with the same row count** -- callers that need two outputs of the same
network alive at once must copy the first.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.nn.init import INITIALIZERS
from repro.utils.rng import SeedLike, as_generator

#: Units per prefix-bias GEMV (:class:`Dense`).  Measured on OpenBLAS
#: 0.3.31: GEMVs over 4-column-aligned slices reproduce one GEMV over
#: all columns bit for bit; 1- or 2-column slices match for ~1 unit in
#: 12.
BIAS_GROUP = 4


class Layer(ABC):
    """Base layer: forward caches, backward returns input gradient."""

    #: Compute/storage dtype; subclasses override per instance.
    dtype = np.dtype(np.float64)

    @abstractmethod
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Compute outputs; with ``train=True`` cache for backward."""

    @abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Propagate ``dL/dout`` to ``dL/din``, accumulating param grads."""

    def params(self) -> list[np.ndarray]:
        """Trainable arrays (shared references, not copies)."""
        return []

    def grads(self) -> list[np.ndarray]:
        """Gradient arrays aligned with :meth:`params`."""
        return []

    def zero_grad(self) -> None:
        """Reset accumulated gradients."""
        for g in self.grads():
            g[...] = 0.0

    def weights_changed(self, live_only: bool = False) -> None:
        """Drop anything derived from the parameter values.

        Whoever writes a layer's parameters in place (an optimizer
        step, a target sync, a checkpoint load, a weight fetch) calls
        this afterwards; layers that cache nothing ignore it.
        ``live_only=True`` says the write was an optimizer step that
        honoured :meth:`live_units` (``Optimizer.skips_dead_units``):
        every unit outside the live sets kept its parameters bit for
        bit, so only what derives from live units is stale.
        """

    def live_units(self) -> list[np.ndarray | None]:
        """Per entry of :meth:`params`, ``None`` or a live-unit mask.

        A mask is a boolean array over a parameter's output units that
        the layer keeps current: after a backward pass it is True for
        every unit whose gradient row may be non-zero.  An optimizer
        may skip the other units (``live_units=`` of
        :class:`repro.nn.optimizers.Optimizer`).
        """
        return [None] * len(self.params())

    def _cast(self, x) -> np.ndarray:
        """View ``x`` in this layer's dtype (copies only on mismatch)."""
        return np.asarray(x, dtype=self.dtype)

    @staticmethod
    def _workspace(cache: dict, rows: int, cols: int, dtype) -> np.ndarray:
        """Reusable (rows, cols) buffer from ``cache``, keyed by rows."""
        buf = cache.get(rows)
        if buf is None or buf.shape[1] != cols:
            buf = cache[rows] = np.empty((rows, cols), dtype=dtype)
        return buf


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    **Constant-prefix mode** (:meth:`bind_static_prefix`).  When the
    leading ``p`` inputs are the same vector ``x_static`` in every
    state -- the docking receptor block, 9,792 of the paper's 10,059
    inputs -- the layer also accepts bare tails of ``in_features - p``
    floats and computes ``tails @ W[p:] + c`` with
    ``c = x_static @ W[:p] + b``.  ``c`` is a pure function of the
    weights, cached and recomputed on the first forward after
    :meth:`weights_changed`, per aligned group of :data:`BIAS_GROUP`
    units: one GEMV over ``W[:p, g:g + BIAS_GROUP]`` plus ``b[g:g +
    BIAS_GROUP]`` each.  A plain :meth:`weights_changed` recomputes
    every group; one after an optimizer step that skipped the dead
    units (``live_only=True``) only the groups holding a live unit --
    a dead unit's weight column was not written and its bias gradient
    is ``+0.0``, which leaves its bias bits in place.  Entries are
    never patched incrementally, and full and partial refreshes run
    the same per-group ops, so the cache equals a from-scratch one bit
    for bit on any BLAS (and a resumed run rebuilds it).  Backward fills
    the static rows of ``dw`` with the rank-1 ``x_static * sum_b
    delta_b`` and only for units whose delta column has a non-zero
    entry, marking them in the live-unit mask (:meth:`live_units`);
    :meth:`zero_grad` clears just the rows written since the last
    reset, so ``dw`` is always the true dense gradient without a
    full-array pass.  Full-width inputs still take the plain path.

    Binding also switches ``w``/``dw`` to **unit-major** storage: still
    one logical ``(in, out)`` array each (same shape in ``params()``,
    checkpoints and weight broadcasts), but Fortran-ordered, so one
    unit's ``in`` weights are contiguous and ``w.T`` is a C-contiguous
    ``(out, in)`` view of the same memory.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        init: str = "he",
        rng: SeedLike = None,
        dtype=np.float64,
    ):
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        try:
            initializer = INITIALIZERS[init]
        except KeyError:
            raise ValueError(f"unknown initializer {init!r}") from None
        gen = as_generator(rng)
        self.dtype = np.dtype(dtype)
        self.w = np.ascontiguousarray(
            initializer(in_features, out_features, gen), dtype=self.dtype
        )
        self.b = np.zeros(out_features, dtype=self.dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None
        self._out: dict[int, np.ndarray] = {}
        self._gin: dict[int, np.ndarray] = {}
        #: Full-width ``x.T @ g`` scratch (allocated on first use).
        self._dw_ws: np.ndarray | None = None
        self._db_ws = np.empty_like(self.b)
        self._static: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        """Input width."""
        return self.w.shape[0]

    @property
    def out_features(self) -> int:
        """Output width."""
        return self.w.shape[1]

    # -- constant-prefix mode ---------------------------------------------
    def bind_static_prefix(self, static: np.ndarray) -> None:
        """Enter constant-prefix mode (see the class docstring).

        Re-homes ``w`` and ``dw`` in unit-major arrays: call it before
        anything (optimizer, weight block) takes references from
        ``params()`` / ``grads()``.
        """
        static = np.ascontiguousarray(static, dtype=self.dtype)
        if static.ndim != 1 or not 0 < static.shape[0] < self.in_features:
            raise ValueError(
                "static prefix must be 1-D and shorter than in_features "
                f"({static.shape} vs {self.in_features})"
            )
        self._static = static
        self.w = np.asfortranarray(self.w)
        self.dw = np.zeros_like(self.w)
        #: c = x_static @ W[:p] + b, valid for every unit not ``_stale``.
        self._static_bias = np.empty_like(self.b)
        self._stale = np.ones(self.out_features, dtype=bool)
        self._group_starts = np.arange(0, self.out_features, BIAS_GROUP)
        #: Units whose ``dw`` row has been written since zero_grad: the
        #: live-unit mask an optimizer reads.
        self._dirty = np.zeros(self.out_features, dtype=bool)

    def _takes_tails(self, x: np.ndarray) -> bool:
        return (
            self._static is not None
            and x.shape[-1] == self.in_features - self._static.shape[0]
        )

    def weights_changed(self, live_only: bool = False) -> None:
        if self._static is None:
            return
        if live_only:
            self._stale |= self._dirty
        else:
            self._stale[:] = True

    def live_units(self) -> list[np.ndarray | None]:
        return [self._dirty if self._static is not None else None, None]

    def _prefix_bias(self) -> np.ndarray:
        """``x_static @ W[:p] + b`` for the current weights (cached)."""
        stale = self._stale
        if stale.any():
            p = self._static.shape[0]
            c = self._static_bias
            groups = np.logical_or.reduceat(stale, self._group_starts)
            for lo in self._group_starts[groups].tolist():
                hi = lo + BIAS_GROUP
                np.matmul(self._static, self.w[:p, lo:hi], out=c[lo:hi])
                c[lo:hi] += self.b[lo:hi]
            stale[:] = False
        return self._static_bias

    def _prefix_backward(self, tails: np.ndarray, g: np.ndarray) -> None:
        """``dw += [x_static | tails].T @ g`` without the static GEMM."""
        p = self._static.shape[0]
        dw_units = self.dw.T  # (out, in), C-contiguous
        if self._dirty.any():
            dw_units[:, p:] += g.T @ tails
        else:
            np.matmul(g.T, tails, out=dw_units[:, p:])
        delta_sum = self._db_ws
        for u in np.flatnonzero(g.any(axis=0)):
            row = dw_units[u, :p]
            if self._dirty[u]:
                row += self._static * delta_sum[u]
            else:
                np.multiply(self._static, delta_sum[u], out=row)
                self._dirty[u] = True

    def zero_grad(self) -> None:
        if self._static is None:
            super().zero_grad()
            return
        # Rows never written hold zeros already (the tail columns of a
        # dead unit are the products of its all-zero delta column).
        self.dw.T[self._dirty] = 0.0
        self._dirty[:] = False
        self.db[...] = 0.0

    # -- forward / backward -----------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = self._cast(x)
        if train:
            self._x = x
        if self._takes_tails(x):
            w, b = self.w[self._static.shape[0] :], self._prefix_bias()
        else:
            w, b = self.w, self.b
        if x.ndim != 2:
            return x @ w + b
        out = self._workspace(
            self._out, x.shape[0], self.out_features, self.dtype
        )
        np.matmul(x, w, out=out)
        out += b
        return out

    def backward(
        self, grad_out: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter grads; propagate ``dL/din``.

        ``need_input_grad=False`` skips the input-gradient matmul and
        returns ``None`` — for the *first* layer of a network that
        matmul is pure waste, and at DQN-Docking shape (in_features
        10,059) it costs as much as the whole forward pass.  After a
        forward on bare tails the input gradient is the tails'.
        """
        if self._x is None:
            raise RuntimeError("backward before forward(train=True)")
        g = self._cast(grad_out)
        x = self._x
        np.sum(g, axis=0, out=self._db_ws)
        self.db += self._db_ws
        if self._takes_tails(x):
            self._prefix_backward(x, g)
            w = self.w[self._static.shape[0] :]
        else:
            if self._dw_ws is None:
                self._dw_ws = np.empty_like(self.w)
            np.matmul(x.T, g, out=self._dw_ws)
            self.dw += self._dw_ws
            if self._static is not None:
                self._dirty[:] = True
            w = self.w
        if not need_input_grad:
            return None
        gin = self._workspace(self._gin, g.shape[0], w.shape[0], self.dtype)
        np.matmul(g, w.T, out=gin)
        return gin

    def params(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dw, self.db]

    def __repr__(self) -> str:
        return f"Dense({self.in_features}, {self.out_features})"


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self, *, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._mask: np.ndarray | None = None
        self._out: dict[int, np.ndarray] = {}
        self._gin: dict[int, np.ndarray] = {}
        self._masks: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = self._cast(x)
        if x.ndim != 2:
            if train:
                self._mask = x > 0
            return np.maximum(x, 0.0)
        out = self._workspace(self._out, x.shape[0], x.shape[1], self.dtype)
        np.maximum(x, 0.0, out=out)
        if train:
            mask = self._workspace(
                self._masks, x.shape[0], x.shape[1], bool
            )
            np.greater(x, 0.0, out=mask)
            self._mask = mask
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward(train=True)")
        g = self._cast(grad_out)
        if g.ndim != 2:
            return g * self._mask
        gin = self._workspace(self._gin, g.shape[0], g.shape[1], self.dtype)
        np.multiply(g, self._mask, out=gin)
        return gin


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def __init__(self, *, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        y = np.tanh(self._cast(x))
        if train:
            self._y = y
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward before forward(train=True)")
        return self._cast(grad_out) * (1.0 - self._y**2)


class Sigmoid(Layer):
    """Logistic activation."""

    def __init__(self, *, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = self._cast(x)
        # Branch on sign so the exponential argument is always <= 0
        # (np.where would still evaluate the overflowing branch).
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        if train:
            self._y = y
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward before forward(train=True)")
        return self._cast(grad_out) * self._y * (1.0 - self._y)


class Identity(Layer):
    """Pass-through activation (linear output heads)."""

    def __init__(self, *, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self._cast(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self._cast(grad_out)


ACTIVATIONS = {
    "relu": ReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "linear": Identity,
}
