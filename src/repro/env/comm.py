"""Engine<->agent communication and transition-transport layers.

The paper's Section 5 names its first limitation: "the communication
between the algorithm and METADOCK entails to write two separate files in
disk with the new state and the score respectively and then DQN-Docking
reads those files".  We implement exactly that (:class:`FileComm`) and
the proposed in-memory replacement (:class:`RamComm`) behind one
interface, so the ablation bench can quantify the cost the authors paid.

The cross-process transport builds on the same idea:
:class:`TransitionRing` is a single-producer single-consumer ring of
full transition records in shared memory, the decoupled transport used
by the actor/learner trainer (:mod:`repro.rl.distributed`): each actor
pushes at its own pace and the learner batch-drains, so neither side
blocks the other until a ring fills (backpressure) or empties
(starvation) -- both of which are counted.
"""

from __future__ import annotations

import os
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from multiprocessing.sharedctypes import RawArray, RawValue
from pathlib import Path

import numpy as np


class CommChannel(ABC):
    """One state+score round trip between engine and agent."""

    @abstractmethod
    def exchange(self, state: np.ndarray, score: float) -> tuple[np.ndarray, float]:
        """Deliver (state, score) from the engine to the agent."""

    def close(self) -> None:
        """Release any resources (default: none)."""

    def __enter__(self) -> "CommChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RamComm(CommChannel):
    """Direct in-memory hand-off (the paper's proposed fix)."""

    def exchange(self, state: np.ndarray, score: float) -> tuple[np.ndarray, float]:
        return state, score


class FileComm(CommChannel):
    """Faithful reproduction of the paper's on-disk exchange.

    Two files per step: the state vector (binary ``.npy``) and the score
    (text), written by the "engine side" then read back by the "agent
    side".  ``fsync=True`` additionally forces the data to the device,
    modelling the worst case.
    """

    def __init__(self, directory: str | os.PathLike | None = None, *, fsync: bool = False):
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="dqn-docking-comm-")
            self.directory = Path(self._tmp.name)
        else:
            self._tmp = None
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.state_path = self.directory / "state.npy"
        self.score_path = self.directory / "score.txt"
        self.round_trips = 0

    def exchange(self, state: np.ndarray, score: float) -> tuple[np.ndarray, float]:
        # Engine side: write both files.
        with open(self.state_path, "wb") as fh:
            np.save(fh, np.asarray(state, dtype=np.float64))
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
        with open(self.score_path, "w") as fh:
            fh.write(repr(float(score)))
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
        # Agent side: read both files back.
        state_back = np.load(self.state_path)
        score_back = float(self.score_path.read_text())
        self.round_trips += 1
        return state_back, score_back

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


#: dtype -> ctypes typecode for the ring's shared state blocks.
_STATE_TYPECODES = {
    np.dtype(np.float64): "d",
    np.dtype(np.float32): "f",
}


@dataclass(frozen=True)
class TransitionRecord:
    """One drained transition (arrays are copies, safe to keep)."""

    state: np.ndarray
    next_state: np.ndarray
    action: int
    reward: float
    done: bool
    #: Engine score after the step (NaN when unreported) -- carried so
    #: the learner can rebuild per-episode stats without re-scoring.
    score: float
    #: ``max_a Q(s_t, a)`` computed by the acting sidecar -- the
    #: Figure 4 quantity, measured where the action was chosen.
    max_q: float
    #: Crystal-pose RMSD after the step (NaN when unreported).
    crystal_rmsd: float


class TransitionRing:
    """Lock-free SPSC ring of transition records in shared memory.

    One ring per actor process: the actor (single producer) pushes each
    transition as it happens; the learner (single consumer) drains in
    batches.  Correctness rests on the classic single-producer /
    single-consumer discipline: the producer writes the slot payload
    *then* bumps ``head``; the consumer reads up to ``head`` and bumps
    ``tail`` only after copying out.  Head/tail are aligned 64-bit
    values written by exactly one side each, so no lock is needed.

    Backpressure: ``push`` sleep-polls while the ring is full (counting
    ``full_waits``), so a slow learner throttles actors instead of
    dropping data.  Starvation on the consumer side is observable as
    empty ``drain`` calls.

    The ring must be allocated before forking; with the ``fork`` start
    method both sides then share the underlying memory.  A
    ``state_dim`` of zero is valid (state-less payloads -- e.g. pure
    reward streams) and exercised by the comm edge-case tests.
    """

    def __init__(
        self,
        state_dim: int,
        capacity: int,
        *,
        state_dtype=np.float64,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if state_dim < 0:
            raise ValueError("state_dim must be >= 0")
        dtype = np.dtype(state_dtype)
        if dtype not in _STATE_TYPECODES:
            raise TypeError(
                f"unsupported state dtype {dtype}; expected one of "
                f"{sorted(str(d) for d in _STATE_TYPECODES)}"
            )
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self.state_dtype = dtype
        code = _STATE_TYPECODES[dtype]
        n = self.capacity * self.state_dim
        self._states = np.frombuffer(
            RawArray(code, n), dtype=dtype
        ).reshape(self.capacity, self.state_dim)
        self._next_states = np.frombuffer(
            RawArray(code, n), dtype=dtype
        ).reshape(self.capacity, self.state_dim)
        self._actions = np.frombuffer(
            RawArray("q", self.capacity), dtype=np.int64
        )
        self._rewards = np.frombuffer(
            RawArray("d", self.capacity), dtype=np.float64
        )
        self._dones = np.frombuffer(
            RawArray("B", self.capacity), dtype=np.uint8
        )
        self._scores = np.frombuffer(
            RawArray("d", self.capacity), dtype=np.float64
        )
        self._max_qs = np.frombuffer(
            RawArray("d", self.capacity), dtype=np.float64
        )
        self._rmsds = np.frombuffer(
            RawArray("d", self.capacity), dtype=np.float64
        )
        # Monotonic counters; slot index is ``counter % capacity``.
        self._head = RawValue("q", 0)  # written by the producer only
        self._tail = RawValue("q", 0)  # written by the consumer only
        self._full_waits = RawValue("q", 0)

    def __len__(self) -> int:
        """Transitions currently buffered (the ring-depth gauge)."""
        return int(self._head.value - self._tail.value)

    @property
    def pushed(self) -> int:
        """Total transitions ever pushed."""
        return int(self._head.value)

    @property
    def full_waits(self) -> int:
        """Pushes that had to block on a full ring (backpressure)."""
        return int(self._full_waits.value)

    def push(
        self,
        state,
        next_state,
        action: int,
        reward: float,
        done: bool,
        *,
        score: float = float("nan"),
        max_q: float = float("nan"),
        crystal_rmsd: float = float("nan"),
        stop=None,
        timeout: float | None = None,
        poll_interval: float = 1e-4,
    ) -> bool:
        """Producer side: append one transition, blocking while full.

        Returns False (transition dropped) only when ``stop()`` turns
        true or ``timeout`` elapses while waiting for a free slot --
        both are shutdown paths, never silent data loss in a healthy
        run.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        waited = False
        while self._head.value - self._tail.value >= self.capacity:
            if not waited:
                self._full_waits.value += 1
                waited = True
            if stop is not None and stop():
                return False
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(poll_interval)
        i = self._head.value % self.capacity
        state = np.asarray(state, dtype=self.state_dtype).reshape(-1)
        next_state = np.asarray(
            next_state, dtype=self.state_dtype
        ).reshape(-1)
        if state.shape[0] != self.state_dim:
            raise ValueError(
                f"state length {state.shape[0]} != ring state_dim "
                f"{self.state_dim}"
            )
        if next_state.shape[0] != self.state_dim:
            raise ValueError(
                f"next_state length {next_state.shape[0]} != ring "
                f"state_dim {self.state_dim}"
            )
        self._states[i, :] = state
        self._next_states[i, :] = next_state
        self._actions[i] = int(action)
        self._rewards[i] = float(reward)
        self._dones[i] = 1 if done else 0
        self._scores[i] = float(score)
        self._max_qs[i] = float(max_q)
        self._rmsds[i] = float(crystal_rmsd)
        # Publish: the head bump makes the slot visible to the consumer,
        # so it must come after the payload writes above.
        self._head.value += 1
        return True

    def _copy_out(self, counter: int) -> TransitionRecord:
        i = counter % self.capacity
        return TransitionRecord(
            state=self._states[i].copy(),
            next_state=self._next_states[i].copy(),
            action=int(self._actions[i]),
            reward=float(self._rewards[i]),
            done=bool(self._dones[i]),
            score=float(self._scores[i]),
            max_q=float(self._max_qs[i]),
            crystal_rmsd=float(self._rmsds[i]),
        )

    def pop(self) -> TransitionRecord | None:
        """Consumer side: copy out the oldest transition, or None."""
        if self._head.value - self._tail.value <= 0:
            return None
        rec = self._copy_out(self._tail.value)
        # Free the slot only after the copy-out above.
        self._tail.value += 1
        return rec

    def drain(self, max_items: int | None = None) -> list[TransitionRecord]:
        """Consumer side: copy out up to ``max_items`` transitions.

        Reads ``head`` once, so a concurrent producer never extends the
        batch mid-drain.  Returns an empty list when the ring is empty
        (the starvation signal).
        """
        head = self._head.value
        tail = self._tail.value
        available = head - tail
        if max_items is not None:
            available = min(available, int(max_items))
        out: list[TransitionRecord] = []
        for k in range(available):
            out.append(self._copy_out(tail + k))
        self._tail.value = tail + available
        return out


def make_comm(mode: str, **kwargs) -> CommChannel:
    """Factory keyed by config string ("ram" or "file")."""
    if mode == "ram":
        return RamComm()
    if mode == "file":
        return FileComm(**kwargs)
    raise ValueError(f"unknown comm mode {mode!r}")
