"""Edge cases of the transition-transport layer (:mod:`repro.env.comm`).

The :class:`TransitionRing` is the load-bearing piece of the
actor/learner runtime: a lock-free SPSC ring whose correctness rests on
the write-payload-then-bump-head discipline.  These tests pin its
contract at the boundaries -- zero-length payloads, wraparound, full
rings (backpressure), timeout-then-recover sequences, and cross-process
visibility.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.env.comm import TransitionRing

fork_required = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="shared-memory transports need a fork-capable platform",
)


def _push_simple(ring, k, state_dim=2, **kw):
    state = np.full(state_dim, float(k))
    return ring.push(
        state, state + 1.0, action=k, reward=float(k), done=False, **kw
    )


class TestTransitionRingBasics:
    def test_fifo_order_and_payload_roundtrip(self):
        ring = TransitionRing(state_dim=3, capacity=8)
        for k in range(5):
            ok = ring.push(
                np.arange(3) + k,
                np.arange(3) + k + 10,
                action=k,
                reward=0.5 * k,
                done=(k == 4),
                score=100.0 + k,
                max_q=-1.0 * k,
                crystal_rmsd=2.0 + k,
            )
            assert ok
        assert len(ring) == 5
        records = ring.drain()
        assert len(records) == 5 and len(ring) == 0
        for k, rec in enumerate(records):
            np.testing.assert_array_equal(rec.state, np.arange(3) + k)
            np.testing.assert_array_equal(
                rec.next_state, np.arange(3) + k + 10
            )
            assert rec.action == k
            assert rec.reward == 0.5 * k
            assert rec.done is (k == 4)
            assert rec.score == 100.0 + k
            assert rec.max_q == -1.0 * k
            assert rec.crystal_rmsd == 2.0 + k

    def test_wraparound_preserves_order(self):
        ring = TransitionRing(state_dim=1, capacity=3)
        seen = []
        for k in range(10):
            assert _push_simple(ring, k, state_dim=1)
            if len(ring) == ring.capacity:
                seen.extend(r.action for r in ring.drain(max_items=2))
        seen.extend(r.action for r in ring.drain())
        assert seen == list(range(10))
        assert ring.pushed == 10 and len(ring) == 0

    def test_pop_single_and_empty(self):
        ring = TransitionRing(state_dim=2, capacity=4)
        assert ring.pop() is None
        assert ring.drain() == []
        _push_simple(ring, 7)
        rec = ring.pop()
        assert rec is not None and rec.action == 7
        assert ring.pop() is None

    def test_drained_records_are_copies(self):
        ring = TransitionRing(state_dim=2, capacity=1)
        _push_simple(ring, 1)
        rec = ring.drain()[0]
        _push_simple(ring, 2)  # reuses the same slot
        np.testing.assert_array_equal(rec.state, [1.0, 1.0])

    def test_zero_length_payloads(self):
        # state_dim=0 is a valid degenerate ring (pure reward stream).
        ring = TransitionRing(state_dim=0, capacity=4)
        drained = []
        for k in range(6):
            assert ring.push([], [], action=k, reward=float(k), done=False)
            if len(ring) == ring.capacity:
                drained.extend(ring.drain(max_items=2))
        drained.extend(ring.drain())
        assert [r.action for r in drained] == list(range(6))
        assert all(r.state.shape == (0,) for r in drained)
        assert ring.pushed == 6

    def test_float32_ring_keeps_dtype(self):
        ring = TransitionRing(
            state_dim=2, capacity=2, state_dtype=np.float32
        )
        ring.push([1.5, 2.5], [3.5, 4.5], action=0, reward=0.0, done=False)
        rec = ring.pop()
        assert rec.state.dtype == np.float32
        np.testing.assert_array_equal(rec.state, [1.5, 2.5])

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            TransitionRing(state_dim=2, capacity=0)
        with pytest.raises(ValueError):
            TransitionRing(state_dim=-1, capacity=2)
        with pytest.raises(TypeError):
            TransitionRing(state_dim=2, capacity=2, state_dtype=np.int32)
        ring = TransitionRing(state_dim=2, capacity=2)
        with pytest.raises(ValueError):
            ring.push([1.0], [1.0, 2.0], action=0, reward=0.0, done=False)
        with pytest.raises(ValueError):
            ring.push(
                [1.0, 2.0], [1.0, 2.0, 3.0],
                action=0, reward=0.0, done=False,
            )


class TestTransitionRingBackpressure:
    def test_full_push_times_out_then_recovers(self):
        ring = TransitionRing(state_dim=2, capacity=2)
        assert _push_simple(ring, 0)
        assert _push_simple(ring, 1)
        # Full: a bounded push must report failure, not block forever.
        t0 = time.monotonic()
        assert not _push_simple(ring, 2, timeout=0.05)
        assert time.monotonic() - t0 < 5.0
        assert ring.full_waits == 1
        # Recover: drain one slot and the same push succeeds, with the
        # ring's counters and FIFO order intact.
        assert ring.pop().action == 0
        assert _push_simple(ring, 2, timeout=0.05)
        assert [r.action for r in ring.drain()] == [1, 2]
        assert ring.pushed == 3 and len(ring) == 0

    def test_stop_callback_aborts_blocked_push(self):
        ring = TransitionRing(state_dim=1, capacity=1)
        assert _push_simple(ring, 0, state_dim=1)
        stopped = {"flag": False}

        def stop():
            stopped["flag"] = True
            return True

        assert not _push_simple(ring, 1, state_dim=1, stop=stop)
        assert stopped["flag"]
        # The buffered record is untouched by the aborted push.
        assert ring.pop().action == 0

    def test_full_waits_counts_one_per_blocked_push(self):
        ring = TransitionRing(state_dim=1, capacity=1)
        _push_simple(ring, 0, state_dim=1)
        for _ in range(3):
            _push_simple(ring, 9, state_dim=1, timeout=0.01)
        assert ring.full_waits == 3


def _producer_main(ring, n):
    for k in range(n):
        ring.push(
            [float(k), float(2 * k)],
            [float(k + 1), float(2 * k + 1)],
            action=k,
            reward=float(k),
            done=(k % 3 == 0),
            score=float(1000 + k),
            timeout=30.0,
        )


@fork_required
class TestTransitionRingCrossProcess:
    def test_fork_producer_parent_consumer(self):
        # Capacity far below the push count forces wraparound *and*
        # live backpressure while both processes run.
        ring = TransitionRing(state_dim=2, capacity=4)
        n = 50
        ctx = mp.get_context("fork")
        proc = ctx.Process(target=_producer_main, args=(ring, n))
        proc.start()
        try:
            records = []
            deadline = time.monotonic() + 30.0
            while len(records) < n:
                records.extend(ring.drain())
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("consumer timed out")
                time.sleep(1e-4)
        finally:
            proc.join(10.0)
            if proc.is_alive():  # pragma: no cover
                proc.kill()
        assert [r.action for r in records] == list(range(n))
        for k, rec in enumerate(records):
            np.testing.assert_array_equal(rec.state, [k, 2 * k])
            assert rec.done is (k % 3 == 0)
            assert rec.score == 1000 + k
