"""Checkpointing: save/restore network weights as ``.npz`` archives.

:func:`save_network` / :func:`load_network` persist bare parameters for
the paper's deployment story -- "reducing the computational cost once
the NN is already trained" -- where a trained Q-network is reloaded for
greedy rollouts.  :func:`network_arrays` / :func:`load_network_arrays`
expose the same validated parameter transport on in-memory dicts; the
full-state run checkpoints of :mod:`repro.runtime` are built on them.

Every load validates parameter count, per-layer shapes, *and* dtypes
against the target network before any write, raising
:class:`CheckpointMismatchError` on any disagreement -- never silently
broadcasting, casting a float64 archive into a float32 network, or
leaving the net half-written to crash mid-forward.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.nn.network import MLP, build_mlp

PathLike = Union[str, Path]


class CheckpointMismatchError(ValueError):
    """A checkpoint does not fit the network/state it is loaded into.

    Raised *before* any mutation, so the target is left untouched.
    """


def network_arrays(net: MLP, *, prefix: str = "p") -> Dict[str, np.ndarray]:
    """All parameters as ``{prefix}{i}`` -> array (copies)."""
    return {f"{prefix}{i}": p.copy() for i, p in enumerate(net.params())}


def load_network_arrays(
    net: MLP,
    arrays: Dict[str, np.ndarray],
    *,
    prefix: str = "p",
    source: str = "checkpoint",
) -> MLP:
    """Load a :func:`network_arrays` dict into ``net``, validated.

    Parameter count, shapes, and dtypes are all checked against the
    target before the first write, so a mismatch leaves ``net``
    untouched and raises :class:`CheckpointMismatchError` with the
    offending layer named.
    """
    params = net.params()
    keys = [f"{prefix}{i}" for i in range(len(params))]
    missing = [k for k in keys if k not in arrays]
    relevant = [k for k in arrays if k.startswith(prefix)]
    if missing or len(relevant) != len(params):
        raise CheckpointMismatchError(
            f"{source} has {len(relevant)} parameter arrays, "
            f"network expects {len(params)}"
            + (f" (missing {missing})" if missing else "")
        )
    loaded = [np.asarray(arrays[k]) for k in keys]
    for i, (p, arr) in enumerate(zip(params, loaded)):
        if p.shape != arr.shape:
            raise CheckpointMismatchError(
                f"{source} parameter {i}: shape {arr.shape} does not "
                f"match network shape {p.shape}"
            )
        if p.dtype != arr.dtype:
            raise CheckpointMismatchError(
                f"{source} parameter {i}: dtype {arr.dtype} does not "
                f"match network dtype {p.dtype} (refusing a silent cast)"
            )
    for p, arr in zip(params, loaded):
        p[...] = arr
    net.weights_changed()
    return net


def mlp_from_arrays(
    arrays: Dict[str, np.ndarray],
    *,
    prefix: str = "p",
    activation: str = "relu",
    source: str = "checkpoint",
) -> MLP:
    """Reconstruct an :class:`MLP` from a :func:`network_arrays` dict.

    The architecture is inferred from the weight shapes alone -- the
    parameter list of :func:`build_mlp` networks alternates
    ``(in, out)`` weight matrices with ``(out,)`` biases, so the layer
    widths are fully determined -- which lets screening deployment
    rebuild a trained Q-network from a bare checkpoint without a config
    object travelling alongside the weights.  Compute dtype follows the
    stored arrays.  Malformed parameter sets (odd counts, non-chaining
    shapes, gaps in the index sequence) raise
    :class:`CheckpointMismatchError`.
    """
    keys = sorted(
        (
            k
            for k in arrays
            if k.startswith(prefix) and k[len(prefix) :].isdigit()
        ),
        key=lambda k: int(k[len(prefix) :]),
    )
    indices = [int(k[len(prefix) :]) for k in keys]
    if not keys or indices != list(range(len(keys))):
        raise CheckpointMismatchError(
            f"{source}: expected a contiguous {prefix}0..{prefix}N "
            f"parameter sequence, got {keys or 'no parameter arrays'}"
        )
    params = [np.asarray(arrays[k]) for k in keys]
    if len(params) % 2 != 0:
        raise CheckpointMismatchError(
            f"{source}: {len(params)} parameter arrays cannot form "
            "alternating weight/bias pairs"
        )
    weights = params[0::2]
    biases = params[1::2]
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise CheckpointMismatchError(
                f"{source} layer {i}: weight {w.shape} / bias "
                f"{b.shape} is not a Dense (in, out)/(out,) pair"
            )
        if i > 0 and w.shape[0] != weights[i - 1].shape[1]:
            raise CheckpointMismatchError(
                f"{source} layer {i}: fan-in {w.shape[0]} does not "
                f"chain from previous layer width "
                f"{weights[i - 1].shape[1]}"
            )
    net = build_mlp(
        int(weights[0].shape[0]),
        [int(w.shape[1]) for w in weights[:-1]],
        int(weights[-1].shape[1]),
        activation=activation,
        rng=0,
        dtype=params[0].dtype,
    )
    clean = {f"{prefix}{i}": p for i, p in enumerate(params)}
    return load_network_arrays(net, clean, prefix=prefix, source=source)


def save_network(net: MLP, path: PathLike) -> None:
    """Write all parameters to ``path`` (npz, keys ``p0``, ``p1``, ...)."""
    np.savez(path, **network_arrays(net))


def load_network(net: MLP, path: PathLike) -> MLP:
    """Load parameters saved by :func:`save_network` into ``net``.

    The architecture must match exactly -- parameter count, shapes, and
    dtypes are validated before any write (see
    :func:`load_network_arrays`), so a mismatch raises
    :class:`CheckpointMismatchError` and leaves ``net`` untouched.
    """
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    return load_network_arrays(net, arrays, source=str(path))
