"""Parameter-update rules: SGD, RMSprop (the paper's choice), Adam.

RMSprop follows the DQN-Nature formulation the paper cites [35]: a
running average of squared gradients normalizes each step.  All
optimizers update parameter arrays in place (they hold references from
``MLP.params()``) and support global gradient-norm clipping.

**Blocked updates.**  Every rule is a fixed sequence of elementwise
ufuncs, so it may run over any partition of a parameter without
changing a single bit.  Each parameter is therefore bound once, at
construction, to 1-D *memory-order* views of itself, its gradient and
its state slots, cut into blocks of :data:`BLOCK_ELEMS` elements that
share one block-sized scratch array; a step walks the blocks, so the
rule's temporaries stay in cache instead of streaming a 1.36 M-element
first layer through memory nine times.  A parameter smaller than one
block is one block (small networks run exactly the whole-array ops).

**Unit-major parameters.**  A 2-D Fortran-ordered ``(in, out)`` weight
(the layout :meth:`repro.nn.layers.Dense.bind_static_prefix` switches
to) keeps each output unit's ``in`` weights contiguous; its blocks are
whole unit rows.  That is what lets :class:`RMSprop` skip units whose
gradient is exactly zero -- see its docstring.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

#: Elements per update block: 128 KiB of float32, so a rule's four
#: operand blocks (parameter, gradient, slot, scratch) sit in L2.
BLOCK_ELEMS = 1 << 15


def _memory_order(a: np.ndarray) -> np.ndarray:
    """1-D view of the contiguous array ``a`` in memory order."""
    return (a if a.flags.c_contiguous else a.T).reshape(-1)


def _is_unit_major(a: np.ndarray) -> bool:
    """True for a 2-D ``(in, out)`` array stored one output unit per row."""
    return a.ndim == 2 and a.flags.f_contiguous and not a.flags.c_contiguous


class _BoundParam:
    """One parameter with its gradient and slots, cut into update blocks.

    ``flat`` holds the memory-order views ``(param, grad, *slots)``;
    ``blocks`` the per-block tuples ``(param, grad, *slots, scratch)``.
    ``unit_rows`` is the ``(out, in)`` view of a blocked unit-major
    gradient as unsigned integers (``None`` otherwise): one row per
    block, for the zero-row scan.  ``live`` lists the blocks the
    current step must touch -- all of them unless the rule's
    ``_mark_live`` narrowed it.
    """

    __slots__ = ("flat", "blocks", "unit_rows", "live")

    def __init__(self, arrays: Sequence[np.ndarray]):
        p = arrays[0]
        same_layout = all(
            a.shape == p.shape and a.strides == p.strides for a in arrays
        )
        self.unit_rows = None
        if not (
            same_layout and (p.flags.c_contiguous or p.flags.f_contiguous)
        ):
            # Elementwise ufuncs are layout-agnostic: update the arrays
            # as they are, in one piece.
            self.flat = tuple(arrays)
            self.blocks = self.live = [self.flat + (np.empty_like(p),)]
            return
        self.flat = tuple(_memory_order(a) for a in arrays)
        n = p.size
        step = BLOCK_ELEMS
        if _is_unit_major(p) and n > BLOCK_ELEMS:
            step = p.shape[0]
            g = self.flat[1]
            self.unit_rows = g.view(f"u{g.itemsize}").reshape(-1, step)
        scratch = np.empty(min(n, step), dtype=p.dtype)
        self.blocks = [
            tuple(f[lo : lo + step] for f in self.flat)
            + (scratch[: min(step, n - lo)],)
            for lo in range(0, n, step)
        ]
        self.live = self.blocks

    def grad_sq_norm(self) -> float:
        """Sum of squared gradient entries (one full-array ``dot``)."""
        g = self.flat[1]
        if g.ndim != 1:
            g = g.reshape(-1)
        return float(np.dot(g, g))


class Optimizer(ABC):
    """Base: binds (params, grads) references and steps in place."""

    def __init__(
        self,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        lr: float,
        *,
        max_grad_norm: float | None = None,
    ):
        if len(params) != len(grads):
            raise ValueError("params and grads must be aligned")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.grads = grads
        self.lr = float(lr)
        self.max_grad_norm = max_grad_norm
        self.steps = 0
        self._bound: list[_BoundParam] = []

    def _bind(self, *slots: list[np.ndarray]) -> None:
        """Cut every parameter (with its ``slots`` entries) into blocks.

        Called once by each rule's constructor, after its slot arrays
        exist; the views stay valid because parameters, gradients and
        slots are only ever written in place.
        """
        self._bound = [
            _BoundParam(arrays)
            for arrays in zip(self.params, self.grads, *slots)
        ]

    def _mark_live(self) -> None:
        """Hook: narrow ``bound.live`` to the blocks this step changes.

        Only blocks whose gradient is entirely zero may be left out,
        and only by a rule under which such a block cannot move.
        """

    def _clip(self) -> None:
        if self.max_grad_norm is None:
            return
        total = np.sqrt(sum(b.grad_sq_norm() for b in self._bound))
        if total > self.max_grad_norm and total > 0:
            scale = self.max_grad_norm / total
            for bound in self._bound:
                # Gradients outside the live blocks are all zero, which
                # scaling would leave as they are.
                for block in bound.live:
                    g = block[1]
                    g *= scale

    def step(self) -> None:
        """Apply one update from the current gradients."""
        self._mark_live()
        self._clip()
        self.steps += 1
        self._apply()

    @abstractmethod
    def _apply(self) -> None:
        """Rule-specific in-place parameter update."""

    def _state_slots(self) -> dict:
        """Named per-parameter state lists (momentum, squared avgs...)."""
        return {}

    def state_dict(self) -> dict:
        """Full optimizer state: step counter plus every slot array.

        Slot arrays are saved as plain row-major copies whatever their
        in-memory order; the block scratch carries no information
        across steps and is excluded.
        """
        state: dict = {"rule": type(self).__name__.lower(), "steps": self.steps}
        for name, slots in self._state_slots().items():
            state[name] = {f"s{i}": a.copy() for i, a in enumerate(slots)}
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (validated, in place)."""
        from repro.nn.checkpoints import CheckpointMismatchError

        rule = state.get("rule")
        if rule != type(self).__name__.lower():
            raise CheckpointMismatchError(
                f"optimizer rule mismatch: checkpoint {rule!r} vs "
                f"{type(self).__name__.lower()!r}"
            )
        slots_by_name = self._state_slots()
        staged = []
        for name, slots in slots_by_name.items():
            saved = state.get(name)
            if not isinstance(saved, dict) or len(saved) != len(slots):
                raise CheckpointMismatchError(
                    f"optimizer slot {name!r}: checkpoint has "
                    f"{len(saved) if isinstance(saved, dict) else 0} arrays, "
                    f"expected {len(slots)}"
                )
            for i, dst in enumerate(slots):
                arr = np.asarray(saved[f"s{i}"])
                if arr.shape != dst.shape:
                    raise CheckpointMismatchError(
                        f"optimizer slot {name}[{i}]: shape {arr.shape} vs "
                        f"{dst.shape}"
                    )
                staged.append((dst, arr))
        for dst, arr in staged:
            dst[...] = arr
        self.steps = int(state["steps"])


class SGD(Optimizer):
    """Vanilla/momentum stochastic gradient descent."""

    def __init__(self, params, grads, lr: float = 0.01, momentum: float = 0.0, **kw):
        super().__init__(params, grads, lr, **kw)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]
        self._bind(self._velocity)

    def _apply(self) -> None:
        for bound in self._bound:
            for p, g, v, ws in bound.blocks:
                np.multiply(g, self.lr, out=ws)
                if self.momentum:
                    v *= self.momentum
                    v -= ws
                    p += v
                else:
                    p -= ws

    def _state_slots(self) -> dict:
        return {"velocity": self._velocity}


class RMSprop(Optimizer):
    """RMSprop with the DQN-Nature hyperparameters as defaults.

    **Live-unit update.**  Where a gradient entry is zero the rule
    reduces to ``s *= rho``: ``g * g`` adds nothing to the running
    average and the parameter moves by ``lr * 0 / (sqrt(s) + eps)``.
    For a blocked unit-major parameter (see the module docstring) the
    step therefore decays the whole squared average in one flat pass
    and runs the remaining ops only on the unit rows whose gradient has
    a non-zero entry, found by one OR-reduction over the gradient's
    bit patterns (sign bits masked, so ``-0.0`` counts as zero).  With
    ``eps > 0`` the result equals the dense rule's value for value; the
    single representable difference is a weight stored as ``-0.0``
    under a ``-0.0`` gradient, which the dense rule rewrites as
    ``+0.0``.  At the paper's shape ~120 of the 135 first-layer units
    are dead on a typical minibatch.
    """

    def __init__(
        self,
        params,
        grads,
        lr: float = 0.00025,
        rho: float = 0.95,
        eps: float = 0.01,
        **kw,
    ):
        super().__init__(params, grads, lr, **kw)
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        self.rho = rho
        self.eps = eps
        self._sq = [np.zeros_like(p) for p in params]
        self._bind(self._sq)

    def _mark_live(self) -> None:
        if self.eps <= 0:
            return  # 0 / (sqrt(0) + 0): a zero gradient can still move p
        for bound in self._bound:
            if bound.unit_rows is not None:
                bits = np.bitwise_or.reduce(bound.unit_rows, axis=1)
                bits &= np.iinfo(bits.dtype).max >> 1  # drop the sign bit
                bound.live = [bound.blocks[u] for u in np.flatnonzero(bits)]

    def _apply(self) -> None:
        rho, eps, lr = self.rho, self.eps, self.lr
        for bound in self._bound:
            skipping = bound.live is not bound.blocks
            if skipping:
                # Dead rows need only this; live rows skip it below.
                s_flat = bound.flat[2]
                s_flat *= rho
            for p, g, s, ws in bound.live:
                np.multiply(g, g, out=ws)
                if not skipping:
                    s *= rho
                ws *= 1.0 - rho
                s += ws
                np.sqrt(s, out=ws)
                ws += eps
                np.divide(g, ws, out=ws)
                ws *= lr
                p -= ws

    def _state_slots(self) -> dict:
        return {"square_avg": self._sq}


class Adam(Optimizer):
    """Adam with bias correction (the paper's named alternative)."""

    def __init__(
        self,
        params,
        grads,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        **kw,
    ):
        super().__init__(params, grads, lr, **kw)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._bind(self._m, self._v)

    def _apply(self) -> None:
        t = self.steps
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for bound in self._bound:
            for p, g, m, v, ws in bound.blocks:
                np.multiply(g, 1.0 - self.beta1, out=ws)
                m *= self.beta1
                m += ws
                np.multiply(g, g, out=ws)
                ws *= 1.0 - self.beta2
                v *= self.beta2
                v += ws
                np.divide(v, bc2, out=ws)
                np.sqrt(ws, out=ws)
                ws += self.eps
                # Same-shape elementwise ufuncs tolerate out aliasing an
                # input.
                np.divide(m, ws, out=ws)
                ws *= self.lr / bc1
                p -= ws

    def _state_slots(self) -> dict:
        return {"exp_avg": self._m, "exp_avg_sq": self._v}


def make_optimizer(
    name: str, params, grads, lr: float, **kwargs
) -> Optimizer:
    """Optimizer factory keyed by config string."""
    table = {"sgd": SGD, "rmsprop": RMSprop, "adam": Adam}
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(f"unknown optimizer {name!r}") from None
    return cls(params, grads, lr, **kwargs)
