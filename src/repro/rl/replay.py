"""Uniform experience replay (Lin 1993; Mnih et al. 2015).

The memory stores transition tuples ``(s, a, r, s', terminal)`` in
preallocated ring-buffer arrays -- at the paper's scale (400k memories of
16,599 floats) object-per-transition storage would be hopeless, so states
live in flat float32 matrices and sampling is pure gathering.

Two storage layouts are supported:

**Dense** (default) keeps full ``state`` / ``next_state`` matrices, as in
the classic DQN implementations.  At the paper's Table-1 scale that is
400k x 16,599 x float32 x 2 ~ 53 GB -- unusable on commodity hardware.

**Compact** (``static_prefix=...``) exploits two structural facts of the
docking MDP: the leading receptor block of every state is *constant for
the entire run*, and within an episode ``next_state`` of step *t* is
``state`` of step *t+1*.  The constant prefix is stored once, only the
dynamic ligand tail (~267 floats for the paper's 2BSM complex) lives in
the ring, and successor transitions share a single dynamic ring: the
``next_state`` tail of slot ``i`` is usually just ``_dyn[i + 1]``.  Tails
that have no live successor slot (episode ends, ring wrap, interleaved
multi-env pushes) spill into a small growable overflow pool.  The same
400k capacity then costs ~0.9 GB.

``sample()`` gathers into preallocated per-batch-size float32 buffers
(static prefix pre-filled), so steady-state learning allocates no new
state arrays.  **The returned state buffers are reused by the next
``sample()`` call of the same batch size** -- consume or copy them before
sampling again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_generator

#: ``_next_ref`` codes for compact storage (values >= 0 are overflow rows).
_SUCC = -1  #: next-state tail aliases the successor slot's state tail
_PENDING = -2  #: next-state tail lives in ``_pending`` (newest transition)


@dataclass(frozen=True)
class Transition:
    """One stored transition (returned by single-item access)."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


@dataclass(frozen=True)
class Batch:
    """A sampled minibatch as parallel arrays.

    ``states`` / ``next_states`` are views of preallocated gather
    buffers owned by the memory; they are overwritten by the next
    ``sample()`` call with the same batch size.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray
    #: Buffer slots of each sample (prioritized replay updates these).
    indices: np.ndarray
    #: Importance-sampling weights (all ones for uniform replay).
    weights: np.ndarray
    #: Per-transition bootstrap discounts (gamma for 1-step transitions,
    #: gamma^h for h-step accumulated ones).
    discounts: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


class ReplayMemory:
    """Fixed-capacity ring buffer with uniform sampling.

    With ``static_prefix`` set, states are stored compactly (see module
    docstring); ``push`` then accepts either full ``state_dim`` vectors
    or bare dynamic tails of ``state_dim - len(static_prefix)`` floats,
    and samples reconstruct full states on the fly.
    """

    def __init__(
        self,
        capacity: int,
        state_dim: int,
        *,
        seed: SeedLike = None,
        dtype=np.float32,
        static_prefix: np.ndarray | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        self.capacity = int(capacity)
        self.state_dim = int(state_dim)
        self._dtype = np.dtype(dtype)
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=np.float64)
        self._terminals = np.zeros(capacity, dtype=bool)
        self._discounts = np.ones(capacity, dtype=np.float64)
        self._rng = as_generator(seed)
        self._size = 0
        self._cursor = 0
        #: Per-batch-size (states, next_states) gather buffers.
        self._batch_bufs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._ones: dict[int, np.ndarray] = {}

        if static_prefix is None:
            self._compact = False
            self._states = np.zeros((capacity, state_dim), dtype=self._dtype)
            self._next_states = np.zeros(
                (capacity, state_dim), dtype=self._dtype
            )
        else:
            static = np.ascontiguousarray(static_prefix, dtype=self._dtype)
            if static.ndim != 1:
                raise ValueError("static_prefix must be a 1-D array")
            if static.shape[0] >= state_dim:
                raise ValueError(
                    "static_prefix must be shorter than state_dim "
                    f"({static.shape[0]} >= {state_dim})"
                )
            self._compact = True
            self._static = static
            self._static.flags.writeable = False
            self._prefix_len = static.shape[0]
            self._tail_dim = self.state_dim - self._prefix_len
            #: One dynamic ring: slot i holds the *state* tail of
            #: transition i; next-state tails resolve via ``_next_ref``.
            self._dyn = np.zeros(
                (capacity, self._tail_dim), dtype=self._dtype
            )
            self._next_ref = np.full(capacity, _PENDING, dtype=np.int64)
            #: Next-state tail of the most recent push, until the
            #: following push proves it aliases the successor slot (or
            #: spills it to overflow on mismatch / episode end).
            self._pending = np.zeros(self._tail_dim, dtype=self._dtype)
            self._pending_slot = -1
            #: Growable pool of next-state tails that cannot alias a
            #: live ring slot; rows are recycled through a free list
            #: when their owning transition is overwritten.
            self._overflow = np.zeros(
                (min(64, capacity), self._tail_dim), dtype=self._dtype
            )
            self._over_used = 0
            self._over_free: list[int] = []

    # -- compact-layout helpers -----------------------------------------

    @property
    def prefix_len(self) -> int:
        """Length of the shared static prefix (0 for dense storage)."""
        return self._prefix_len if self._compact else 0

    def _tail_of(self, arr) -> np.ndarray:
        """Dynamic tail of ``arr`` (accepts full states or bare tails)."""
        a = np.asarray(arr)
        if a.ndim != 1:
            a = a.reshape(-1)
        if a.shape[0] == self.state_dim:
            a = a[self._prefix_len :]
        elif a.shape[0] != self._tail_dim:
            raise ValueError(
                f"state length {a.shape[0]} is neither state_dim "
                f"{self.state_dim} nor tail_dim {self._tail_dim}"
            )
        if a.dtype != self._dtype:
            a = a.astype(self._dtype)
        return a

    def _alloc_overflow(self) -> int:
        """Reserve one overflow row, growing the pool if needed."""
        if self._over_free:
            return self._over_free.pop()
        if self._over_used == self._overflow.shape[0]:
            rows = min(2 * self._overflow.shape[0], self.capacity)
            grown = np.zeros((rows, self._tail_dim), dtype=self._dtype)
            grown[: self._over_used] = self._overflow
            self._overflow = grown
        slot = self._over_used
        self._over_used += 1
        return slot

    def _flush_pending(self) -> None:
        """Spill the pending next-state tail to the overflow pool."""
        slot = self._alloc_overflow()
        self._overflow[slot] = self._pending
        self._next_ref[self._pending_slot] = slot
        self._pending_slot = -1

    def _next_tail(self, index: int) -> np.ndarray:
        """Next-state tail of transition ``index`` (compact layout)."""
        ref = self._next_ref[index]
        if ref >= 0:
            return self._overflow[ref]
        if ref == _SUCC:
            return self._dyn[(index + 1) % self.capacity]
        return self._pending

    def _full_state(self, tail: np.ndarray) -> np.ndarray:
        """Reconstruct a full float64 state from a dynamic tail."""
        out = np.empty(self.state_dim, dtype=np.float64)
        out[: self._prefix_len] = self._static
        out[self._prefix_len :] = tail
        return out

    # -- core API -------------------------------------------------------

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        terminal: bool,
        discount: float = 1.0,
    ) -> int:
        """Store one transition; returns the slot index used.

        ``discount`` is the bootstrap factor for this transition's
        target (the agent passes gamma, or gamma^h for n-step).
        """
        i = self._cursor
        if self._compact:
            tail_s = self._tail_of(state)
            tail_n = self._tail_of(next_state)
            # Resolve the previous push's pending next-state: if this
            # state continues that trajectory, alias it to our slot.
            if self._pending_slot >= 0:
                if np.array_equal(self._pending, tail_s):
                    self._next_ref[self._pending_slot] = _SUCC
                    self._pending_slot = -1
                else:
                    self._flush_pending()
            # Recycle the overflow row of the transition we overwrite.
            if self._size == self.capacity and self._next_ref[i] >= 0:
                self._over_free.append(int(self._next_ref[i]))
            self._dyn[i] = tail_s
            np.copyto(self._pending, tail_n)
            self._pending_slot = i
            self._next_ref[i] = _PENDING
        else:
            self._states[i] = state
            self._next_states[i] = next_state
        self._actions[i] = action
        self._rewards[i] = reward
        self._terminals[i] = terminal
        self._discounts[i] = discount
        if self._compact and terminal:
            # Episode over: the next push starts a fresh trajectory, so
            # this next-state can never alias a ring slot.
            self._flush_pending()
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return i

    def _batch_buffers(
        self, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(states, next_states) gather buffers for this batch size."""
        bufs = self._batch_bufs.get(batch_size)
        if bufs is None:
            states = np.empty(
                (batch_size, self.state_dim), dtype=self._dtype
            )
            next_states = np.empty_like(states)
            if self._compact:
                states[:, : self._prefix_len] = self._static
                next_states[:, : self._prefix_len] = self._static
            bufs = (states, next_states)
            self._batch_bufs[batch_size] = bufs
        return bufs

    def _gather(
        self, idx: np.ndarray, weights: np.ndarray | None = None
    ) -> Batch:
        """Build a :class:`Batch` for ``idx`` using the shared buffers."""
        b = int(idx.shape[0])
        states, next_states = self._batch_buffers(b)
        if self._compact:
            p = self._prefix_len
            for j, i in enumerate(idx):
                states[j, p:] = self._dyn[i]
                next_states[j, p:] = self._next_tail(int(i))
        else:
            np.take(self._states, idx, axis=0, out=states)
            np.take(self._next_states, idx, axis=0, out=next_states)
        if weights is None:
            weights = self._ones.get(b)
            if weights is None:
                weights = np.ones(b)
                weights.flags.writeable = False
                self._ones[b] = weights
        return Batch(
            states=states,
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=next_states,
            terminals=self._terminals[idx],
            indices=idx,
            weights=weights,
            discounts=self._discounts[idx],
        )

    def sample(self, batch_size: int) -> Batch:
        """Uniformly sample ``batch_size`` transitions (with replacement)."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty memory")
        idx = self._rng.integers(0, self._size, size=batch_size)
        return self._gather(idx)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> Transition:
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range 0..{self._size - 1}")
        if self._compact:
            state = self._full_state(self._dyn[index])
            next_state = self._full_state(self._next_tail(index))
        else:
            state = self._states[index].astype(np.float64)
            next_state = self._next_states[index].astype(np.float64)
        return Transition(
            state=state,
            action=int(self._actions[index]),
            reward=float(self._rewards[index]),
            next_state=next_state,
            terminal=bool(self._terminals[index]),
        )

    # -- checkpointing --------------------------------------------------

    def state_dict(self) -> dict:
        """Full replay state: ring contents, cursor, and sampling RNG.

        Ring arrays are trimmed to the occupied rows (slots beyond
        ``len(self)`` have never been written), so checkpoints of a
        part-filled memory stay proportional to the data actually held.
        Restoring via :meth:`load_state_dict` is bit-exact: the same
        pushes and the same ``sample()`` draws follow.
        """
        from repro.utils.rng import generator_state

        n = self._size
        state: dict = {
            "layout": "compact" if self._compact else "dense",
            "capacity": self.capacity,
            "state_dim": self.state_dim,
            "dtype": self._dtype.name,
            "size": n,
            "cursor": self._cursor,
            "actions": self._actions[:n].copy(),
            "rewards": self._rewards[:n].copy(),
            "terminals": self._terminals[:n].copy(),
            "discounts": self._discounts[:n].copy(),
            "rng": generator_state(self._rng),
        }
        if self._compact:
            state.update(
                prefix_len=self._prefix_len,
                static=self._static.copy(),
                dyn=self._dyn[:n].copy(),
                next_ref=self._next_ref[:n].copy(),
                pending=self._pending.copy(),
                pending_slot=self._pending_slot,
                overflow=self._overflow[: self._over_used].copy(),
                over_used=self._over_used,
                over_free=list(self._over_free),
            )
        else:
            state.update(
                states=self._states[:n].copy(),
                next_states=self._next_states[:n].copy(),
            )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (validated, in place)."""
        from repro.nn.checkpoints import CheckpointMismatchError
        from repro.utils.rng import restore_generator

        layout = "compact" if self._compact else "dense"
        if state.get("layout") != layout:
            raise CheckpointMismatchError(
                f"replay layout mismatch: checkpoint "
                f"{state.get('layout')!r} vs memory {layout!r}"
            )
        for field in ("capacity", "state_dim"):
            if int(state.get(field, -1)) != getattr(self, field):
                raise CheckpointMismatchError(
                    f"replay {field} mismatch: checkpoint "
                    f"{state.get(field)} vs memory {getattr(self, field)}"
                )
        if state.get("dtype") != self._dtype.name:
            raise CheckpointMismatchError(
                f"replay dtype mismatch: checkpoint {state.get('dtype')!r} "
                f"vs memory {self._dtype.name!r}"
            )
        n = int(state["size"])
        if self._compact:
            if int(state["prefix_len"]) != self._prefix_len:
                raise CheckpointMismatchError(
                    f"static prefix length mismatch: checkpoint "
                    f"{state['prefix_len']} vs memory {self._prefix_len}"
                )
            if not np.array_equal(
                np.asarray(state["static"]), self._static
            ):
                raise CheckpointMismatchError(
                    "static prefix contents differ between checkpoint "
                    "and memory (different complex?)"
                )
            self._dyn[:n] = state["dyn"]
            self._dyn[n:] = 0
            self._next_ref[:n] = state["next_ref"]
            self._next_ref[n:] = _PENDING
            np.copyto(self._pending, np.asarray(state["pending"]))
            self._pending_slot = int(state["pending_slot"])
            used = int(state["over_used"])
            if used > self._overflow.shape[0]:
                grown = np.zeros(
                    (used, self._tail_dim), dtype=self._dtype
                )
                self._overflow = grown
            self._overflow[:used] = state["overflow"]
            self._overflow[used:] = 0
            self._over_used = used
            self._over_free = [int(i) for i in state["over_free"]]
        else:
            self._states[:n] = state["states"]
            self._states[n:] = 0
            self._next_states[:n] = state["next_states"]
            self._next_states[n:] = 0
        self._actions[:n] = state["actions"]
        self._actions[n:] = 0
        self._rewards[:n] = state["rewards"]
        self._rewards[n:] = 0
        self._terminals[:n] = state["terminals"]
        self._terminals[n:] = False
        self._discounts[:n] = state["discounts"]
        self._discounts[n:] = 1.0
        self._size = n
        self._cursor = int(state["cursor"])
        restore_generator(self._rng, state["rng"])

    def nbytes(self) -> int:
        """Approximate memory footprint of the stored arrays."""
        n = (
            self._actions.nbytes
            + self._rewards.nbytes
            + self._terminals.nbytes
            + self._discounts.nbytes
        )
        if self._compact:
            n += (
                self._static.nbytes
                + self._dyn.nbytes
                + self._next_ref.nbytes
                + self._pending.nbytes
                + self._overflow.nbytes
            )
        else:
            n += self._states.nbytes + self._next_states.nbytes
        return n
