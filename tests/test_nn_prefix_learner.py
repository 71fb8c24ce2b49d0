"""The constant-prefix learner: equivalence pins and generated contracts.

Three mechanisms make the paper-shaped learn step cheap (see
docs/PERFORMANCE.md, "Constant-prefix learner"), and each is pinned
here against the plain thing it replaces:

- **blocked updates** -- SGD / RMSprop / Adam over cache-sized blocks of
  memory-order views must equal the whole-array rules bit for bit, in
  row-major and unit-major order;
- **live-unit RMSprop** -- skipping the unit rows outside the layer's
  live-unit mask, with their decays applied lazily, must equal the
  dense rule bit for bit (clip active or not, ``-0.0`` gradients,
  subnormal and zero ``square_avg``, units that die and revive over
  hundreds of steps, a checkpoint taken mid dead stretch), also over a
  seeded 300-step compact training run;
- **prefix-factored first layer** -- ``tails @ W[p:] + c`` and the
  rank-1 static gradient rows against an explicit full-state ``Dense``
  within the float32 drift bound, the cached ``c`` against recomputing
  it on every call bit for bit (also after every learn step, which
  refreshes only the live units' entries), and ``gradcheck`` in
  float64.

The whole-array rules below are the pre-blocking implementations kept
verbatim as the reference.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.optimizers as optimizers
from repro.nn.checkpoints import load_network_arrays, network_arrays
from repro.nn.layers import Dense
from repro.nn.losses import make_loss
from repro.nn.network import build_mlp
from repro.nn.optimizers import Adam, Optimizer, RMSprop, SGD
from repro.rl.agent import AgentConfig, DQNAgent
from tests.gradcheck import check_gradients
from tests.test_nn_float32 import DRIFT_BOUND, relative_drift


# -- whole-array reference rules (the pre-blocking code, verbatim) ----------


class _WholeArray(Optimizer):
    """Reference base: one scratch array per parameter, dense clip."""

    def __init__(self, params, grads, lr, **kw):
        super().__init__(params, grads, lr, **kw)
        self._ws = [np.empty_like(p) for p in params]

    def _clip(self) -> None:
        if self.max_grad_norm is None:
            return
        # ravel(order="K") is the memory-order view of a contiguous
        # array: the same dot the blocked optimizers take.
        flats = [g.ravel(order="K") for g in self.grads]
        total = np.sqrt(sum(float(np.dot(f, f)) for f in flats))
        if total > self.max_grad_norm and total > 0:
            scale = self.max_grad_norm / total
            for g in self.grads:
                g *= scale


class WholeArraySGD(_WholeArray):
    def __init__(self, params, grads, lr=0.01, momentum=0.0, **kw):
        super().__init__(params, grads, lr, **kw)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]

    def _apply(self) -> None:
        for p, g, v, ws in zip(
            self.params, self.grads, self._velocity, self._ws
        ):
            np.multiply(g, self.lr, out=ws)
            if self.momentum:
                v *= self.momentum
                v -= ws
                p += v
            else:
                p -= ws

    def _state_slots(self) -> dict:
        return {"velocity": self._velocity}


class WholeArrayRMSprop(_WholeArray):
    def __init__(self, params, grads, lr=0.00025, rho=0.95, eps=0.01, **kw):
        super().__init__(params, grads, lr, **kw)
        self.rho = rho
        self.eps = eps
        self._sq = [np.zeros_like(p) for p in params]

    def _apply(self) -> None:
        for p, g, s, ws in zip(self.params, self.grads, self._sq, self._ws):
            np.multiply(g, g, out=ws)
            s *= self.rho
            ws *= 1.0 - self.rho
            s += ws
            np.sqrt(s, out=ws)
            ws += self.eps
            np.divide(g, ws, out=ws)
            ws *= self.lr
            p -= ws

    def _state_slots(self) -> dict:
        return {"square_avg": self._sq}


class WholeArrayAdam(_WholeArray):
    def __init__(
        self, params, grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8, **kw
    ):
        super().__init__(params, grads, lr, **kw)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]

    def _apply(self) -> None:
        t = self.steps
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, g, m, v, ws in zip(
            self.params, self.grads, self._m, self._v, self._ws
        ):
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
            np.divide(m, ws, out=ws)
            ws *= self.lr / bc1
            p -= ws

    def _state_slots(self) -> dict:
        return {"exp_avg": self._m, "exp_avg_sq": self._v}


RULES = {
    "sgd": (SGD, WholeArraySGD, {"lr": 0.05}),
    "sgd-momentum": (SGD, WholeArraySGD, {"lr": 0.05, "momentum": 0.9}),
    "rmsprop": (RMSprop, WholeArrayRMSprop, {"lr": 0.01}),
    "adam": (Adam, WholeArrayAdam, {"lr": 0.01}),
}


def _bits(a: np.ndarray) -> np.ndarray:
    """Logical-order bit patterns: equal bits, not just equal values."""
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.itemsize}")


def _assert_same_bits(actual, expected):
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def _slots(opt) -> list[np.ndarray]:
    return [a for slot in opt._state_slots().values() for a in slot]


def _twin_optimizers(
    rule, arrays, order, block, max_grad_norm, seed_slots, live_units=None
):
    """(blocked, reference) optimizers over equal private arrays.

    ``live_units`` (masks aligned with ``arrays``) goes to the blocked
    optimizer only; the reference runs the dense rule on every entry.
    """
    new_cls, ref_cls, kw = RULES[rule]

    def build(cls, masks=None):
        params = [np.array(a, order=order) for a in arrays]
        grads = [np.zeros_like(p) for p in params]
        opt = cls(
            params, grads, max_grad_norm=max_grad_norm, live_units=masks, **kw
        )
        for slot, seed in zip(_slots(opt), seed_slots * 2):
            slot[...] = seed
        return opt

    with mock.patch.object(optimizers, "BLOCK_ELEMS", block):
        blocked = build(new_cls, live_units)
    return blocked, build(ref_cls)


def _step_both(blocked, reference, grads):
    for opt in (blocked, reference):
        for dst, g in zip(opt.grads, grads):
            dst[...] = g
        opt.step()


def _assert_optimizers_equal(blocked, reference):
    for a, b in zip(blocked.params, reference.params):
        _assert_same_bits(a, b)
    for a, b in zip(_slots(blocked), _slots(reference)):
        _assert_same_bits(a, b)
    # The clip rescales gradients in place; both must have seen the
    # same scale.
    for a, b in zip(blocked.grads, reference.grads):
        _assert_same_bits(a, b)


# -- generated inputs -------------------------------------------------------

_SUBNORMAL = np.float32(1e-41)


@st.composite
def _gradient_case(draw):
    """A (in, out) float32 weight with a gradient sequence.

    Per step each output unit is dead (all-zero gradient column), live,
    or live with ``-0.0`` entries mixed in; ``square_avg`` starts at
    zero, subnormal, or ordinary magnitudes.  Each step also carries
    the live-unit mask a layer would hand over: the live units, now and
    then plus some dead ones (a delta column that cancels).
    """
    n_in = draw(st.integers(2, 24))
    n_out = draw(st.integers(1, 9))
    steps = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    w = rng.standard_normal((n_in, n_out)).astype(np.float32)
    b = rng.standard_normal(n_out).astype(np.float32)
    grads, marks = [], []
    for _ in range(steps):
        mode = draw(st.sampled_from(["none", "some", "all"]))
        live = {
            "none": np.zeros(n_out, dtype=bool),
            "some": rng.random(n_out) < 0.4,
            "all": np.ones(n_out, dtype=bool),
        }[mode]
        gw = rng.standard_normal((n_in, n_out)).astype(np.float32)
        gw[rng.random(gw.shape) < 0.2] = -0.0
        gw[:, ~live] = np.where(rng.random(n_in) < 0.5, 0.0, -0.0)[:, None]
        gb = (rng.standard_normal(n_out) * live).astype(np.float32)
        grads.append([gw, gb])
        superset = draw(st.booleans())
        marks.append(live | (superset & (rng.random(n_out) < 0.3)))
    seed = draw(st.sampled_from(["zero", "subnormal", "normal"]))
    if seed == "zero":
        slot_seed = np.zeros_like(w)
    elif seed == "subnormal":
        slot_seed = np.full_like(w, _SUBNORMAL)
        slot_seed[rng.random(w.shape) < 0.3] = 0.0
    else:
        slot_seed = rng.random(w.shape).astype(np.float32)
    clip = draw(st.sampled_from([None, 0.05, 1e6]))  # off / active / idle
    block = draw(st.sampled_from([3, 8, 32, 1 << 15]))
    return [w, b], grads, marks, [slot_seed, np.zeros_like(b)], clip, block


class TestBlockedEqualsWholeArray:
    @settings(max_examples=60, deadline=None)
    @given(
        case=_gradient_case(),
        rule=st.sampled_from(sorted(RULES)),
        order=st.sampled_from(["C", "F"]),
    )
    def test_generated(self, case, rule, order):
        # The weight carries a live-unit mask, set in place each step as
        # a layer would; RMSprop on a multi-block unit-major weight then
        # skips (and lazily decays) every unit outside it.
        arrays, grads, marks, seeds, clip, block = case
        mask = np.zeros(arrays[0].shape[1], dtype=bool)
        blocked, reference = _twin_optimizers(
            rule, arrays, order, block, clip, seeds, live_units=[mask, None]
        )
        (bound, _) = blocked._bound
        w = blocked.params[0]
        armed = order == "F" and w.shape[1] > 1 and w.size > block
        assert (bound.units is not None) == armed
        for step_grads, marked in zip(grads, marks):
            mask[...] = marked
            _step_both(blocked, reference, step_grads)
            if armed and rule == "rmsprop":
                assert bound.live == np.flatnonzero(marked).tolist()
        _assert_optimizers_equal(blocked, reference)

    def test_small_parameters_are_one_block(self):
        # "Small nets pay nothing": below BLOCK_ELEMS a parameter is a
        # single block over its own memory, whatever its order.
        w = np.zeros((30, 20), dtype=np.float32)
        for order in ("C", "F"):
            p = np.array(w, order=order)
            mask = np.zeros(20, dtype=bool)
            opt = RMSprop([p], [np.zeros_like(p)], live_units=[mask])
            (bound,) = opt._bound
            assert len(bound.blocks) == 1
            assert bound.units is None  # nothing to skip in one block
            assert np.shares_memory(bound.blocks[0][0], p)
            assert bound.blocks[0][0].size == p.size

    def test_scratch_is_block_sized(self):
        # No second full-size first-layer array beside the parameters.
        p = np.zeros((10_059, 135), dtype=np.float32, order="F")
        opt = RMSprop([p], [np.zeros_like(p)])
        (bound,) = opt._bound
        assert len(bound.blocks) == 135
        assert bound.blocks[0][-1].base.size == 10_059

    def test_mismatched_layout_falls_back_to_whole_array(self):
        # A gradient stored in another order than its parameter has no
        # common memory-order view; the rule then runs on the arrays as
        # they are.
        rng = np.random.default_rng(0)
        p = rng.standard_normal((6, 5)).astype(np.float32)
        g = np.asfortranarray(rng.standard_normal((6, 5)).astype(np.float32))
        ref_p, ref_g = p.copy(), g.copy(order="F")
        with mock.patch.object(optimizers, "BLOCK_ELEMS", 4):
            opt = RMSprop([p], [g])
        assert len(opt._bound[0].blocks) == 1
        opt.step()
        WholeArrayRMSprop([ref_p], [ref_g]).step()
        _assert_same_bits(p, ref_p)


class TestLiveUnitRMSprop:
    """Unit-major + RMSprop + a mask: the dead-unit skip for real."""

    def _case(self, live_units, *, clip, seed=0):
        rng = np.random.default_rng(seed)
        n_in, n_out = 50, 12
        w = rng.standard_normal((n_in, n_out)).astype(np.float32)
        gw = np.zeros_like(w)
        gw[:, live_units] = rng.standard_normal(
            (n_in, len(live_units))
        ).astype(np.float32)
        sq = rng.random(w.shape).astype(np.float32)
        sq[:, ::3] = _SUBNORMAL
        sq[:, 1::4] = 0.0
        mask = np.zeros(n_out, dtype=bool)
        mask[live_units] = True
        blocked, reference = _twin_optimizers(
            "rmsprop", [w], "F", 16, clip, [sq], live_units=[mask]
        )
        return blocked, reference, [gw]

    @pytest.mark.parametrize("clip", [None, 0.01, 1e6])
    @pytest.mark.parametrize(
        "live_units", [[], [3], [0, 5, 11], list(range(12))]
    )
    def test_equals_dense_rule(self, live_units, clip):
        blocked, reference, grads = self._case(live_units, clip=clip)
        (bound,) = blocked._bound
        assert bound.units is not None  # the skip is armed
        for _ in range(3):
            _step_both(blocked, reference, grads)
            assert len(bound.live) == len(live_units)
        _assert_optimizers_equal(blocked, reference)

    def test_negative_zero_gradients_count_as_dead(self):
        # Through a bound layer: a delta column of -0.0 leaves its unit
        # out of the layer's mask, and the skip still equals the dense
        # rule over the layer's gradient.
        bound, _plain, _static, rng = _bound_and_plain(40, 10, 12, seed=9)
        with mock.patch.object(optimizers, "BLOCK_ELEMS", 16):
            opt = RMSprop(
                bound.params(), bound.grads(), lr=0.01, max_grad_norm=0.01,
                live_units=bound.live_units(),
            )
        ref_params = [q.copy(order="K") for q in bound.params()]
        ref_grads = [np.zeros_like(q) for q in ref_params]
        ref = WholeArrayRMSprop(
            ref_params, ref_grads, lr=0.01, max_grad_norm=0.01
        )
        tails = rng.standard_normal((4, 10)).astype(np.float32)
        delta = np.full((4, 12), -0.0, dtype=np.float32)
        delta[:, [2, 7]] = rng.standard_normal((4, 2))
        bound.zero_grad()
        bound.forward(tails, train=True)
        bound.backward(delta)
        assert np.flatnonzero(bound.live_units()[0]).tolist() == [2, 7]
        for dst, src in zip(ref_grads, bound.grads()):
            dst[...] = src
        opt.step()
        ref.step()
        assert opt._bound[0].live == [2, 7]
        _assert_optimizers_equal(opt, ref)

    def test_zero_eps_disables_the_skip(self):
        # 0 / (sqrt(0) + 0) is NaN under the dense rule: a zero-gradient
        # unit is not inert, so nothing may be skipped.
        w = np.ones((40, 4), dtype=np.float32, order="F")
        mask = np.zeros(4, dtype=bool)
        with mock.patch.object(optimizers, "BLOCK_ELEMS", 16):
            opt = RMSprop(
                [w], [np.zeros_like(w)], eps=0.0, live_units=[mask]
            )
        ref_w = w.copy(order="F")
        ref = WholeArrayRMSprop([ref_w], [np.zeros_like(ref_w)], eps=0.0)
        with np.errstate(invalid="ignore"):
            opt.step()
            ref.step()
        assert not opt.skips_dead_units
        assert list(opt._bound[0].live) == list(range(4))
        _assert_same_bits(w, ref_w)

    def test_mask_must_cover_the_units(self):
        w = np.zeros((40, 4), dtype=np.float32, order="F")
        with mock.patch.object(optimizers, "BLOCK_ELEMS", 16):
            with pytest.raises(ValueError):
                RMSprop([w], [np.zeros_like(w)], live_units=[np.zeros(3, bool)])
            with pytest.raises(ValueError):
                RMSprop([w], [np.zeros_like(w)], live_units=[None, None])


# -- lazy decay over long horizons -------------------------------------------


@st.composite
def _lifetime_case(draw):
    """Hundreds of steps of units that die and revive.

    Each unit alternates live and dead stretches.  Unit 0 is dead and
    unmarked for the 250 steps before the checkpoint, long enough for
    a subnormal average (seeded so, or fed by a tiny gradient) to reach
    its fixed point, so the read at the checkpoint replays a row that
    stops changing part way.  The mask is now and then a strict
    superset of the units with a non-zero gradient (a layer marks a
    unit whose delta column cancels).
    """
    n_in = draw(st.integers(2, 16))
    n_out = draw(st.integers(2, 6))  # (n, 1) is C-ordered too: no units
    steps = draw(st.integers(300, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    live = np.zeros((steps, n_out), dtype=bool)
    for u in range(n_out):
        t, on = 0, bool(rng.random() < 0.5)
        while t < steps:
            span = int(rng.integers(1, 40 if on else 400))
            live[t : t + span, u] = on
            t, on = t + span, not on
    marked = live | (rng.random(live.shape) < 0.01)
    ckpt = draw(st.integers(260, steps - 20))
    live[ckpt - 250 : ckpt + 10, 0] = marked[ckpt - 250 : ckpt + 10, 0] = False
    seed = draw(st.sampled_from(["zero", "subnormal", "tiny", "normal"]))
    shape = (n_in, n_out)
    if seed == "zero":
        slot = np.zeros(shape, dtype=np.float32)
    elif seed == "subnormal":  # fixed point within ~130 dead steps
        slot = (rng.integers(1, 20_000, shape) * 1.4e-45).astype(np.float32)
        slot[rng.random(shape) < 0.3] = 0.0
    elif seed == "tiny":  # normal, crosses into subnormals
        slot = (rng.random(shape) * 1e-37).astype(np.float32)
    else:
        slot = rng.random(shape).astype(np.float32)
    # 1e-21 squares to ~700 ulp: revived rows stay near the fixed point.
    g_scale = draw(st.sampled_from([1.0, 1e-21]))
    clip = draw(st.sampled_from([None, 0.05, 1e6]))
    w = rng.standard_normal(shape).astype(np.float32)
    return w, slot, live, marked, ckpt, g_scale, clip, int(rng.integers(2**31))


class TestLazyDecay:
    """Stamped rows + replay on revival and on read == the dense rule."""

    def _build(self, w, slot, clip):
        mask = np.zeros(w.shape[1], dtype=bool)
        with mock.patch.object(optimizers, "BLOCK_ELEMS", 1):
            opt = RMSprop(
                [np.asfortranarray(w)], [np.zeros_like(w, order="F")],
                lr=0.01, max_grad_norm=clip, live_units=[mask],
            )
        opt._sq[0][...] = slot
        return opt, mask

    @settings(max_examples=25, deadline=None)
    @given(case=_lifetime_case())
    def test_long_horizon_with_checkpoint_equals_dense_rule(self, case):
        w, slot, live, marked, ckpt, g_scale, clip, seed = case
        n_in = w.shape[0]
        lazy, mask = self._build(w, slot, clip)
        ref = WholeArrayRMSprop(
            [w.copy(order="F")], [np.zeros_like(w, order="F")],
            lr=0.01, max_grad_norm=clip,
        )
        ref._sq[0][...] = slot
        resumed = None
        rng = np.random.default_rng(seed)
        for t in range(live.shape[0]):
            gw = (g_scale * rng.standard_normal((n_in, w.shape[1]))).astype(
                np.float32
            )
            gw[:, ~live[t]] = 0.0
            runs = [(lazy, mask), (ref, None)]
            if resumed is not None:
                runs.append(resumed)
            for opt, m in runs:
                opt.grads[0][...] = gw
                if m is not None:
                    m[...] = marked[t]
                opt.step()
            if t == ckpt:
                assert (lazy._stamps[0] < lazy.steps).any()  # mid stretch
                state = copy.deepcopy(lazy.state_dict())
                fresh, fresh_mask = self._build(w, np.zeros_like(slot), clip)
                fresh.params[0][...] = lazy.params[0]
                fresh.load_state_dict(state)
                resumed = (fresh, fresh_mask)
        fresh = resumed[0]
        _assert_optimizers_equal(lazy, ref)
        _assert_optimizers_equal(fresh, lazy)
        assert fresh.steps == lazy.steps == live.shape[0]

    @pytest.mark.parametrize("start", [1e-30, 3e-42, 1.0, 0.0])
    def test_replay_stops_at_the_fixed_point(self, start):
        # A row dead for 10,000 steps costs the multiplies up to its
        # fixed point, not 10,000, and lands on the dense rule's bits.
        lazy, _mask = self._build(
            np.zeros((8, 2), dtype=np.float32),
            np.full((8, 2), start, dtype=np.float32), None,
        )
        for _ in range(10_000):
            lazy.step()
        _p, _g, s, ws = lazy._bound[0].blocks[0]
        applied = lazy._decay(s, 10_000, ws)
        ref = np.full(8, start, dtype=np.float32)
        for _ in range(10_000):
            ref *= lazy.rho
        _assert_same_bits(s, ref)
        assert applied < 2_400
        lazy._stamps[0][0] = lazy.steps
        _assert_same_bits(lazy._sq[0][:, 1], ref)  # the read replays too


# -- the prefix-factored layer ----------------------------------------------


def _bound_and_plain(p, tail, units, seed, dtype=np.float32):
    """A prefix-bound Dense and an explicit full-state twin."""
    rng = np.random.default_rng(seed)
    plain = Dense(p + tail, units, rng=rng, dtype=dtype)
    plain.b[...] = rng.standard_normal(units)
    bound = copy.deepcopy(plain)
    static = (10.0 * rng.standard_normal(p)).astype(dtype)
    bound.bind_static_prefix(static)
    return bound, plain, static, rng


def _assert_within_drift(actual, expected):
    assert relative_drift(actual, expected) < DRIFT_BOUND


@st.composite
def _layer_case(draw):
    p = draw(st.integers(1, 40))
    tail = draw(st.integers(1, 12))
    units = draw(st.integers(1, 10))
    batch = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**31 - 1))
    mode = draw(st.sampled_from(["none", "some", "all", "cancelling"]))
    return p, tail, units, batch, seed, mode


def _delta(rng, batch, units, mode):
    """dL/d(pre-activation) with the requested live-unit pattern."""
    g = rng.standard_normal((batch, units)).astype(np.float32)
    if mode == "none":
        g[...] = 0.0
    elif mode == "some":
        g[:, rng.random(units) < 0.5] = 0.0
    elif mode == "cancelling" and batch >= 2:
        # Columns that are not zero but sum to exactly zero: the static
        # rows vanish, the tail rows do not, the unit is still live.
        g[...] = 0.0
        g[0], g[1] = 1.5, -1.5
    return g


class TestPrefixFactoredLayer:
    @settings(max_examples=60, deadline=None)
    @given(case=_layer_case())
    def test_matches_explicit_full_state_dense(self, case):
        p, tail, units, batch, seed, mode = case
        bound, plain, static, rng = _bound_and_plain(p, tail, units, seed)
        tails = rng.standard_normal((batch, tail)).astype(np.float32)
        full = np.concatenate(
            [np.broadcast_to(static, (batch, p)), tails], axis=1
        )
        _assert_within_drift(
            bound.forward(tails, train=True), plain.forward(full, train=True)
        )
        g = _delta(rng, batch, units, mode)
        gin_tails = bound.backward(g)
        gin_full = plain.backward(g)
        _assert_within_drift(bound.dw, plain.dw)
        _assert_within_drift(bound.db, plain.db)
        _assert_within_drift(gin_tails, gin_full[:, p:])
        # dw is a true dense gradient: dead units' rows are exact zeros.
        dead = ~g.any(axis=0)
        assert not bound.dw[:, dead].any()
        # ... and a second backward accumulates, as Dense.backward does.
        bound.backward(g)
        plain.backward(g)
        _assert_within_drift(bound.dw, plain.dw)
        bound.zero_grad()
        assert not bound.dw.any() and not bound.db.any()

    @settings(max_examples=40, deadline=None)
    @given(case=_layer_case(), clip=st.sampled_from([None, 0.05, 1e6]))
    def test_live_unit_step_from_layer_gradients(self, case, clip):
        # End to end through the layer: whatever delta pattern backward
        # saw, RMSprop skipping the units outside the layer's live-unit
        # mask equals the dense rule over copies of the arrays, and the
        # partial bias refresh that follows equals a from-scratch one.
        p, tail, units, batch, seed, mode = case
        bound, _plain, _static, rng = _bound_and_plain(p, tail, units, seed)
        with mock.patch.object(optimizers, "BLOCK_ELEMS", 8):
            opt = RMSprop(
                bound.params(), bound.grads(), lr=0.01, max_grad_norm=clip,
                live_units=bound.live_units(),
            )
        armed = units > 1 and bound.w.size > 8
        assert (opt._bound[0].units is not None) == armed
        ref_params = [q.copy(order="K") for q in bound.params()]
        ref_grads = [np.zeros_like(q) for q in ref_params]
        ref = WholeArrayRMSprop(
            ref_params, ref_grads, lr=0.01, max_grad_norm=clip
        )
        for _ in range(3):
            tails = rng.standard_normal((batch, tail)).astype(np.float32)
            bound.zero_grad()
            bound.forward(tails, train=True)
            bound.backward(_delta(rng, batch, units, mode))
            for dst, src in zip(ref_grads, bound.grads()):
                dst[...] = src
            opt.step()
            if armed:
                assert opt._bound[0].live == np.flatnonzero(
                    bound.live_units()[0]
                ).tolist()
            bound.weights_changed(live_only=opt.skips_dead_units)
            ref.step()
            _assert_same_bits(bound._prefix_bias(), _fresh_bias(bound))
        _assert_optimizers_equal(opt, ref)

    def test_cached_bias_equals_recomputing_every_call(self):
        bound, _plain, _static, rng = _bound_and_plain(30, 6, 7, seed=5)
        fresh = copy.deepcopy(bound)
        for step in range(6):
            tails = rng.standard_normal((4, 6)).astype(np.float32)
            fresh.weights_changed()  # cache dropped before every call
            _assert_same_bits(
                bound.forward(tails, train=False),
                fresh.forward(tails, train=False),
            )
            if step % 2:  # a weight version boundary
                delta = (0.1 * rng.standard_normal(bound.w.shape)).astype(
                    np.float32
                )
                for layer in (bound, fresh):
                    layer.w += delta
                    layer.weights_changed()

    def test_bias_is_computed_once_per_weight_version(self):
        # Not per call: a write that skips weights_changed() goes unseen.
        bound, plain, static, rng = _bound_and_plain(30, 6, 7, seed=6)
        tails = rng.standard_normal((3, 6)).astype(np.float32)
        before = bound.forward(tails, train=False).copy()
        bound.w[:30] *= 2.0
        np.testing.assert_array_equal(
            bound.forward(tails, train=False), before
        )
        bound.weights_changed()
        assert not np.array_equal(bound.forward(tails, train=False), before)

    def test_full_width_inputs_take_the_plain_path(self):
        bound, plain, static, rng = _bound_and_plain(20, 5, 6, seed=7)
        full = rng.standard_normal((4, 25)).astype(np.float32)
        _assert_within_drift(
            bound.forward(full, train=True), plain.forward(full, train=True)
        )
        g = rng.standard_normal((4, 6)).astype(np.float32)
        _assert_within_drift(bound.backward(g), plain.backward(g))
        _assert_within_drift(bound.dw, plain.dw)
        bound.zero_grad()
        assert not bound.dw.any()

    def test_gradcheck_float64_through_bound_layer(self):
        net = build_mlp(26, (7,), 3, rng=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        net.layers[0].bind_static_prefix(rng.standard_normal(20))
        tails = rng.standard_normal((5, 6))
        target = rng.standard_normal((5, 3))
        worst = check_gradients(net, tails, make_loss("mse"), target)
        assert worst < 1e-4

    def test_unit_major_storage_is_one_buffer(self):
        bound, _plain, _static, _rng = _bound_and_plain(30, 6, 7, seed=8)
        w, dw = bound.w, bound.dw
        assert w.shape == dw.shape == (36, 7)
        assert w.flags.f_contiguous and w.flags.owndata
        assert w.T.flags.c_contiguous and np.shares_memory(w.T, w)
        assert dw.flags.f_contiguous and dw.flags.owndata
        # A clone must not split the weights into two buffers.
        twin = copy.deepcopy(bound)
        assert twin.w.flags.f_contiguous and twin.w.flags.owndata
        assert not np.shares_memory(twin.w, w)
        assert twin.params()[0] is twin.w

    def test_bind_validates_prefix(self):
        layer = Dense(10, 3, rng=0)
        for bad in (np.zeros(0), np.zeros(10), np.zeros((2, 3))):
            with pytest.raises(ValueError):
                layer.bind_static_prefix(bad)


# -- agent level --------------------------------------------------------------

STATE_DIM, PREFIX_LEN, HIDDEN = 640, 600, 64
TAIL_DIM = STATE_DIM - PREFIX_LEN


def _static_prefix():
    # Raw-coordinate magnitudes: the static contribution dominates the
    # pre-activation, so a unit is on for every sample or off for every
    # sample -- the dead-unit pattern of the paper-shaped network.
    return (30.0 * np.random.default_rng(0).standard_normal(PREFIX_LEN)).astype(
        np.float32
    )


def _compact_agent(variant="dqn", **kw):
    rainbow = variant == "rainbow"
    cfg = AgentConfig(
        state_dim=STATE_DIM,
        n_actions=4,
        hidden_sizes=(HIDDEN,),
        minibatch_size=8,
        replay_capacity=256,
        double=rainbow,
        dueling=rainbow,
        prioritized=rainbow,
        n_step=3 if rainbow else 1,
        seed=7,
        **kw,
    )
    return DQNAgent(cfg, static_state=_static_prefix())


def _drive(agent, steps, seed=1):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(TAIL_DIM).astype(np.float32)
    for t in range(steps):
        action, _q = agent.act(state, t)
        nxt = rng.standard_normal(TAIL_DIM).astype(np.float32)
        terminal = (t + 1) % 17 == 0
        agent.remember(state, action, float(rng.normal()), nxt, terminal)
        if terminal:
            agent.flush_episode()
            nxt = rng.standard_normal(TAIL_DIM).astype(np.float32)
        state = nxt
        if agent.can_learn():
            agent.learn()
        if (t + 1) % 50 == 0:
            agent.sync_target()


def _fresh_bias(layer):
    """The layer's prefix bias rebuilt from scratch (full refresh)."""
    fresh = copy.deepcopy(layer)
    fresh.weights_changed()
    return fresh._prefix_bias()


def _use_dense_rule(agent):
    """Swap the agent's optimizer for the whole-array reference."""
    old = agent.optimizer
    agent.optimizer = WholeArrayRMSprop(
        agent.q_net.params(),
        agent.q_net.grads(),
        old.lr,
        rho=old.rho,
        eps=old.eps,
        max_grad_norm=old.max_grad_norm,
    )


class TestCompactAgent:
    def test_first_layer_is_blocked_unit_major_with_dead_units(self):
        agent = _compact_agent()
        assert agent.consumes_tails
        first = agent.q_net.layers[0]
        assert first.w.shape == (STATE_DIM, HIDDEN)
        assert first.w.size > optimizers.BLOCK_ELEMS
        bound = agent.optimizer._bound[0]
        assert bound.units is first.live_units()[0]
        _drive(agent, 40)
        assert 0 < len(bound.live) < HIDDEN

    @pytest.mark.parametrize("variant", ["dqn", "rainbow"])
    def test_live_unit_equals_dense_rule_over_300_steps(self, variant):
        live = _compact_agent(variant)
        dense = _compact_agent(variant)
        _use_dense_rule(dense)
        _drive(live, 300)
        _drive(dense, 300)
        assert live.learn_steps == dense.learn_steps > 250
        for a, b in zip(live.q_net.params(), dense.q_net.params()):
            _assert_same_bits(a, b)
        for a, b in zip(live.target_net.params(), dense.target_net.params()):
            _assert_same_bits(a, b)
        for a, b in zip(live.optimizer._sq, dense.optimizer._sq):
            _assert_same_bits(a, b)

    @pytest.mark.parametrize("variant", ["dqn", "rainbow"])
    def test_prefix_bias_after_every_learn_step_equals_a_fresh_one(
        self, variant
    ):
        # A learn step marks only its live units' bias entries stale;
        # the refreshed cache must equal one rebuilt from scratch.
        agent = _compact_agent(variant)
        first = agent.q_net.layers[0]
        learn, partial = agent.learn, []

        def checked_learn():
            info = learn()
            partial.append(0 < first._stale.sum() < HIDDEN)
            _assert_same_bits(first._prefix_bias(), _fresh_bias(first))
            return info

        agent.learn = checked_learn
        _drive(agent, 200)
        assert len(partial) > 150 and sum(partial) > 0.9 * len(partial)

    def test_other_weight_writers_take_the_full_refresh(self):
        from repro.rl.distributed.actor import Sidecar

        agent = _compact_agent(target_update_tau=0.5)
        _drive(agent, 30)

        def refreshes_all(layer):
            stale = layer._stale.copy()
            _assert_same_bits(layer._prefix_bias(), _fresh_bias(layer))
            return stale.all()

        agent.learn()
        assert not refreshes_all(agent.q_net.layers[0])
        assert refreshes_all(agent.target_net.layers[0])  # soft update
        agent.sync_target()
        assert refreshes_all(agent.target_net.layers[0])
        other = _compact_agent(target_update_tau=0.5)
        for net in (other.q_net, other.target_net):
            net.layers[0]._prefix_bias()
        other.load_state_dict(agent.state_dict())
        assert refreshes_all(other.q_net.layers[0])
        assert refreshes_all(other.target_net.layers[0])

        class Block:  # a weight block that always holds the learner's
            def fetch(self, version, params_out):
                for dst, src in zip(params_out, agent.q_net.params()):
                    dst[...] = src
                return True

        actor_net = other.q_net.clone()
        actor_net.layers[0]._prefix_bias()
        agent.learn()
        assert Sidecar(actor_net, Block(), agent.head).refresh(1)
        assert refreshes_all(actor_net.layers[0])
        _assert_same_bits(
            actor_net.layers[0]._prefix_bias(),
            agent.q_net.layers[0]._prefix_bias(),
        )

    def test_soft_updates_refresh_the_target_bias(self):
        agent = _compact_agent(target_update_tau=0.5)
        _drive(agent, 30)
        tails = np.random.default_rng(2).standard_normal(
            (3, TAIL_DIM)
        ).astype(np.float32)
        cached = agent.target_net.predict(tails).copy()
        agent.target_net.weights_changed()
        _assert_same_bits(agent.target_net.predict(tails), cached)

    def test_checkpoint_arrays_are_layout_free(self):
        # Shapes and dtypes are the format; memory order is not.  A
        # prefix-bound agent's arrays load into a row-major network and
        # optimizer, and back, unchanged.
        agent = _compact_agent()
        _drive(agent, 40)
        saved = agent.state_dict()
        for arrays in (saved["q_net"], saved["target_net"]):
            assert arrays["p0"].shape == (STATE_DIM, HIDDEN)
            assert all(a.flags.c_contiguous for a in arrays.values())
        row_major = build_mlp(
            STATE_DIM, (HIDDEN,), 4, rng=0, dtype=np.float32
        )
        assert row_major.layers[0].w.flags.c_contiguous
        load_network_arrays(row_major, saved["q_net"])
        opt = RMSprop(row_major.params(), row_major.grads())
        opt.load_state_dict(saved["optimizer"])
        for a, b in zip(row_major.params(), agent.q_net.params()):
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        # ... and back into a fresh prefix-bound agent.
        relayed = dict(saved)
        relayed["q_net"] = network_arrays(row_major)
        relayed["optimizer"] = opt.state_dict()
        other = _compact_agent()
        other.load_state_dict(relayed)
        assert other.q_net.layers[0].w.flags.f_contiguous
        for a, b in zip(other.q_net.params(), agent.q_net.params()):
            _assert_same_bits(a, b)
        for a, b in zip(other.optimizer._sq, agent.optimizer._sq):
            _assert_same_bits(a, b)
        tails = np.random.default_rng(3).standard_normal(TAIL_DIM)
        _assert_same_bits(other.predict_q(tails), agent.predict_q(tails))

    def test_non_dense_first_layer_keeps_the_expansion_fallback(self):
        from repro.nn.layers import Identity
        from repro.nn.network import MLP

        cfg = AgentConfig(
            state_dim=12, n_actions=3, minibatch_size=4,
            replay_capacity=32, seed=0,
        )
        net = MLP(
            [Identity(dtype=np.float32), Dense(12, 3, rng=0, dtype=np.float32)]
        )
        static = np.arange(8, dtype=np.float32)
        agent = DQNAgent(cfg, network=net, static_state=static)
        assert not agent.consumes_tails
        tail = np.ones(4, dtype=np.float32)
        np.testing.assert_array_equal(
            agent.predict_q(tail),
            agent.predict_q(np.concatenate([static, tail])),
        )
