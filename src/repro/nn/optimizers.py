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
whole unit rows.  Its owner may hand the optimizer a **live-unit mask**
(``live_units``, one boolean per output unit, True for every unit whose
gradient row may be non-zero); that is what lets :class:`RMSprop` skip
the units whose gradient is exactly zero -- see its docstring.
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
    ``units`` is the owner's live-unit mask for a unit-major parameter
    cut one block per unit row (``None`` otherwise).  ``live`` indexes
    the blocks the current step must touch -- all of them unless the
    rule's ``_mark_live`` narrowed it to the mask.
    """

    __slots__ = ("flat", "blocks", "units", "live")

    def __init__(
        self, arrays: Sequence[np.ndarray], units: np.ndarray | None = None
    ):
        p = arrays[0]
        same_layout = all(
            a.shape == p.shape and a.strides == p.strides for a in arrays
        )
        self.units = None
        if not (
            same_layout and (p.flags.c_contiguous or p.flags.f_contiguous)
        ):
            # Elementwise ufuncs are layout-agnostic: update the arrays
            # as they are, in one piece.
            self.flat = tuple(arrays)
            self.blocks = [self.flat + (np.empty_like(p),)]
            self.live = range(1)
            return
        self.flat = tuple(_memory_order(a) for a in arrays)
        n = p.size
        step = BLOCK_ELEMS
        if _is_unit_major(p) and n > BLOCK_ELEMS:
            step = p.shape[0]
            if units is not None:
                if units.shape != (p.shape[1],) or units.dtype != bool:
                    raise ValueError(
                        f"live-unit mask must be bool of shape "
                        f"({p.shape[1]},), got {units.dtype} {units.shape}"
                    )
                self.units = units
        scratch = np.empty(min(n, step), dtype=p.dtype)
        self.blocks = [
            tuple(f[lo : lo + step] for f in self.flat)
            + (scratch[: min(step, n - lo)],)
            for lo in range(0, n, step)
        ]
        self.live = range(len(self.blocks))

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
        live_units: Sequence[np.ndarray | None] | None = None,
    ):
        if len(params) != len(grads):
            raise ValueError("params and grads must be aligned")
        if live_units is not None and len(live_units) != len(params):
            raise ValueError("live_units must be aligned with params")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.grads = grads
        self.lr = float(lr)
        self.max_grad_norm = max_grad_norm
        self.steps = 0
        #: Per parameter, ``None`` or its owner's live-unit mask (see the
        #: module docstring); held by reference, its contents are read
        #: on every step.
        self._live_units = (
            list(live_units) if live_units is not None else [None] * len(params)
        )
        self._bound: list[_BoundParam] = []

    def _bind(self, *slots: list[np.ndarray]) -> None:
        """Cut every parameter (with its ``slots`` entries) into blocks.

        Called once by each rule's constructor, after its slot arrays
        exist; the views stay valid because parameters, gradients and
        slots are only ever written in place.
        """
        self._bound = [
            _BoundParam(arrays, units)
            for arrays, units in zip(
                zip(self.params, self.grads, *slots), self._live_units
            )
        ]

    #: True when a step honours ``live_units``: every unit outside a
    #: parameter's live set keeps its bits, so whatever is derived from
    #: a dead unit's weights stays valid.
    skips_dead_units = False

    def _mark_live(self) -> None:
        """Hook: narrow ``bound.live`` to the blocks this step changes.

        Only blocks whose gradient is entirely zero may be left out,
        and only by a rule under which such a block cannot move.
        """

    def _clip(self) -> None:
        if self.max_grad_norm is None:
            return
        # The norm stays one dot over every gradient entry, dead rows
        # included.  At the paper's shape the clip fires on every learn
        # step, so the norm's bits are the scale's bits; a dot over only
        # the live rows sums in another order: over 301 learn steps of
        # train_paper one dot over the gathered live rows matched the
        # full dot on 156 (seed 3) and 143 (seed 5), and per-row dots
        # summed on none.
        total = np.sqrt(sum(b.grad_sq_norm() for b in self._bound))
        if total > self.max_grad_norm and total > 0:
            scale = self.max_grad_norm / total
            for bound in self._bound:
                # Gradients outside the live blocks are all zero, which
                # scaling would leave as they are.
                for u in bound.live:
                    g = bound.blocks[u][1]
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
    For a blocked unit-major parameter with a live-unit mask (see the
    module docstring) a step therefore runs the rule only on the unit
    rows the mask marks and leaves every other row untouched.  At the
    paper's shape ~120 of the 135 first-layer units are dead on a
    typical minibatch.  With ``eps > 0`` the result equals the dense
    rule's value for value; the single representable difference is a
    weight stored as ``-0.0`` under a ``-0.0`` gradient, which the
    dense rule rewrites as ``+0.0``.

    **Lazy decay.**  A dead row still owes the dense rule its
    ``s *= rho``.  Each such row carries a stamp, the step through
    which its decays have been applied; the missed multiplies are
    replayed one at a time (the dense rule's own float32 op, so the
    same bits) when the row next goes live -- this step's decay
    included -- and whenever the slots are read (:attr:`_sq`,
    :meth:`state_dict`).  A replay stops once a multiply would leave
    the row unchanged: every later one is then a no-op too.  Subnormal
    averages settle at 1-9 ulp, where ``k * rho`` rounds back to ``k``,
    so a replay is at most ~2,300 multiplies however long the row was
    dead, and a row that stays dead costs nothing.
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
        self._square_avg = [np.zeros_like(p) for p in params]
        self._bind(self._square_avg)
        #: Per parameter, per block: the step through which the block's
        #: decays have been applied (behind ``steps`` only for skipped
        #: unit rows).
        self._stamps = [
            np.zeros(len(b.blocks), dtype=np.int64) for b in self._bound
        ]

    @property
    def skips_dead_units(self) -> bool:
        # With eps == 0, 0 / (sqrt(0) + 0) is NaN: a zero gradient can
        # still move p, so nothing may be skipped.
        return self.eps > 0

    @property
    def _sq(self) -> list[np.ndarray]:
        """The squared averages, every pending decay applied."""
        for bound, stamp in zip(self._bound, self._stamps):
            for u in np.flatnonzero(stamp != self.steps):
                _, _, s, ws = bound.blocks[u]
                self._decay(s, self.steps - int(stamp[u]), ws)
            stamp[:] = self.steps
        return self._square_avg

    def _decay(self, s: np.ndarray, k: int, ws: np.ndarray) -> int:
        """Apply ``k`` of the dense rule's ``s *= rho`` to the row ``s``.

        Stops at the first multiply that would change nothing and
        returns how many it applied.  The fixed points of
        ``x -> x * rho`` (zero and the smallest subnormals) form an
        interval around zero and the map is monotone, so the row is
        fixed exactly when its largest magnitude is: that one value's
        trajectory, followed in scalar float32, says how many
        multiplies the row needs.
        """
        if k > 1:
            x = np.abs(s, out=ws).max()
            r = x.dtype.type(self.rho)
            for i in range(k):
                y = x * r
                if y == x and np.isfinite(x):
                    k = i
                    break
                x = y
        for _ in range(k):
            s *= self.rho
        return k

    def _mark_live(self) -> None:
        if self.skips_dead_units:
            for bound in self._bound:
                if bound.units is not None:
                    bound.live = np.flatnonzero(bound.units).tolist()

    def _apply(self) -> None:
        rho, eps, lr = self.rho, self.eps, self.lr
        t = self.steps
        for bound, stamp in zip(self._bound, self._stamps):
            for u in bound.live:
                p, g, s, ws = bound.blocks[u]
                self._decay(s, t - int(stamp[u]), ws)
                stamp[u] = t
                np.multiply(g, g, out=ws)
                ws *= 1.0 - rho
                s += ws
                np.sqrt(s, out=ws)
                ws += eps
                np.divide(g, ws, out=ws)
                ws *= lr
                p -= ws

    def _state_slots(self) -> dict:
        return {"square_avg": self._sq}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        # The restored averages are the dense rule's values at the
        # restored step: nothing is pending.
        for stamp in self._stamps:
            stamp[:] = self.steps


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
