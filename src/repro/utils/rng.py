"""Deterministic random-number plumbing.

All stochastic components in the library take either an integer seed or a
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes both, and
:class:`RngFactory` hands out independent child generators for subsystems
(environment, agent, replay sampling, ...) so that changing how many random
draws one subsystem makes never perturbs another -- a requirement for the
reproducible parallel workers of blind docking and screening.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared state);
    anything else creates a fresh PCG64 generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def generator_state(gen: np.random.Generator) -> dict:
    """Snapshot a generator's full bit-generator state.

    The returned dict is JSON-compatible (Python ints are unbounded, so
    the 128-bit PCG64 words survive a JSON round-trip) and feeds
    :func:`restore_generator` -- the mechanism run checkpoints use to
    continue every RNG stream bit-for-bit.
    """
    return gen.bit_generator.state


def restore_generator(gen: np.random.Generator, state: dict) -> np.random.Generator:
    """Restore ``gen`` to a state captured by :func:`generator_state`.

    The bit-generator kinds must match (a PCG64 stream cannot continue
    from an MT19937 snapshot); numpy raises on mismatch.  JSON
    round-trips may have stringified the big integers, so numeric
    strings are coerced back.
    """
    gen.bit_generator.state = _intify(state)
    return gen


def _intify(obj):
    """Recursively coerce numeric strings back to ints (post-JSON)."""
    if isinstance(obj, dict):
        return {k: _intify(v) for k, v in obj.items()}
    if isinstance(obj, str) and (obj.isdigit() or (obj[:1] == "-" and obj[1:].isdigit())):
        return int(obj)
    return obj


class RngFactory:
    """Named independent generators derived from one master seed.

    >>> rngs = RngFactory(123)
    >>> env_rng = rngs.get("env")
    >>> agent_rng = rngs.get("agent")

    Repeated ``get`` with the same name returns the *same* generator
    instance; different names are statistically independent.  The mapping
    from name to stream is stable across runs and across the order in which
    names are first requested.
    """

    def __init__(self, seed: SeedLike = None):
        if isinstance(seed, np.random.SeedSequence):
            self._base_entropy: tuple = (seed.entropy,)
        elif isinstance(seed, np.random.Generator):
            self._base_entropy = (int(seed.integers(2**63)),)
        elif seed is None:
            self._base_entropy = (int(np.random.SeedSequence().entropy),)
        else:
            self._base_entropy = (int(seed),)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._cache:
            # Hash the name into spawn_key space so stream identity depends
            # only on (master seed, name), not on request order.
            key = tuple(name.encode("utf-8"))
            seq = np.random.SeedSequence(
                entropy=self._base_entropy[0], spawn_key=key
            )
            self._cache[name] = np.random.default_rng(seq)
        return self._cache[name]

    def seeds(self, name: str, n: int) -> list[int]:
        """``n`` deterministic integer seeds under stream ``name``
        (for handing to worker processes)."""
        gen = self.get(name)
        return [int(s) for s in gen.integers(0, 2**63, size=n)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(entropy={self._base_entropy[0]})"
