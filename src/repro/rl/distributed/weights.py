"""Versioned shared-memory Q-net weight broadcast (learner -> actors).

The learner publishes refreshed online-network weights as a
monotonically numbered *version*; each actor blocking-fetches the exact
version its deterministic schedule calls for (version ``k`` before
acting at local step ``k * sync_every``).  Because consumption is
round-robin and publishing happens when the learner's consumed count
crosses ``k * num_actors * sync_every``, two slots are provably enough:
by the time version ``k + 1`` overwrites the slot of version ``k - 1``,
every actor has already fetched version ``k`` (it could not have
produced the transitions that triggered the publish otherwise).

Writes use a seqlock-style protocol: the slot's version cell is set to
-1 (in progress) before the payload write and to the new version after,
and readers copy then re-check -- a torn read is detected and retried.
On CPython the aligned 64-bit version stores are single interpreter
operations, so no lock is needed.
"""

from __future__ import annotations

import time
from multiprocessing.sharedctypes import RawArray, RawValue
from typing import Sequence

import numpy as np

#: Slots kept live; see the module docstring for why 2 suffices.
SLOT_DEPTH = 2

_TYPECODES = {
    np.dtype(np.float64): "d",
    np.dtype(np.float32): "f",
}

#: Version cell value marking a slot write in progress.
_IN_PROGRESS = -1


class SharedWeightBlock:
    """Two-slot versioned parameter block in shared memory.

    ``param_shapes`` fixes the flat layout (layer order, as returned by
    ``MLP.params()``); publish and fetch then move whole parameter
    lists without any per-call shape negotiation.  Allocate before
    forking -- both sides share the memory under the ``fork`` start
    method.  The block also carries the run's cooperative stop flag so
    a blocked fetch (or a backpressured ring push) can exit cleanly at
    shutdown.
    """

    def __init__(
        self,
        param_shapes: Sequence[tuple[int, ...]],
        *,
        dtype=np.float32,
    ):
        self.dtype = np.dtype(dtype)
        if self.dtype not in _TYPECODES:
            raise TypeError(f"unsupported weight dtype {self.dtype}")
        self.param_shapes = [tuple(s) for s in param_shapes]
        sizes = [int(np.prod(s)) for s in self.param_shapes]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.n_params = int(self._offsets[-1])
        code = _TYPECODES[self.dtype]
        self._slots = np.frombuffer(
            RawArray(code, SLOT_DEPTH * max(self.n_params, 1)),
            dtype=self.dtype,
        ).reshape(SLOT_DEPTH, max(self.n_params, 1))
        self._slot_version = np.frombuffer(
            RawArray("q", SLOT_DEPTH), dtype=np.int64
        )
        self._slot_version[:] = _IN_PROGRESS
        self._stop = RawValue("B", 0)

    # -- shutdown ---------------------------------------------------------
    def request_stop(self) -> None:
        """Unblock every waiting fetch/push; the run is shutting down."""
        self._stop.value = 1

    def stop_requested(self) -> bool:
        return bool(self._stop.value)

    # -- learner side -----------------------------------------------------
    def publish(self, version: int, params: Sequence[np.ndarray]) -> None:
        """Write ``params`` as ``version`` (learner only)."""
        if version < 0:
            raise ValueError("version must be >= 0")
        if len(params) != len(self.param_shapes):
            raise ValueError(
                f"expected {len(self.param_shapes)} parameter arrays, "
                f"got {len(params)}"
            )
        j = version % SLOT_DEPTH
        row = self._slots[j]
        self._slot_version[j] = _IN_PROGRESS
        for p, lo, hi in zip(
            params, self._offsets[:-1], self._offsets[1:]
        ):
            row[lo:hi] = np.asarray(p, dtype=self.dtype).ravel()
        self._slot_version[j] = version

    # -- actor side -------------------------------------------------------
    def fetch(
        self,
        version: int,
        params_out: Sequence[np.ndarray],
        *,
        poll_interval: float = 1e-4,
        timeout: float | None = None,
    ) -> bool:
        """Blocking-copy exactly ``version`` into ``params_out``.

        Returns False when the stop flag rises (or ``timeout`` elapses)
        before the version appears -- the shutdown path.  A concurrent
        overwrite during the copy is detected by the version re-check
        and the copy retried.
        """
        j = version % SLOT_DEPTH
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        row = self._slots[j]
        while True:
            current = int(self._slot_version[j])
            if current == version:
                for p, lo, hi in zip(
                    params_out, self._offsets[:-1], self._offsets[1:]
                ):
                    np.copyto(
                        p, row[lo:hi].reshape(p.shape), casting="same_kind"
                    )
                if self._slot_version[j] == version:
                    return True
                continue  # torn read detected; re-resolve the slot
            if current > version:
                # The deterministic schedule guarantees this never
                # happens (see module docstring); a hit means the
                # caller broke the publish/fetch contract.
                raise RuntimeError(
                    f"weight version {version} overwritten before fetch "
                    f"(slot now holds {current})"
                )
            if self.stop_requested():
                return False
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(poll_interval)
