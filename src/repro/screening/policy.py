"""Trained-policy screening: checkpoint loading + batched greedy rollout.

The paper's deployment story is "reduce the computational cost once the
NN is already trained": a trained Q-network replaces the metaheuristic
search and docks by greedy rollout.  At screening scale the win comes
from *batching* -- one forward pass per step over the states of every
ligand in a shard, instead of one tiny matmul per ligand -- so the
Q-network inference amortizes exactly like
:func:`repro.scoring.composite.score_pose_batch` amortizes scoring.

Checkpoint flavours accepted by :func:`load_policy`:

- a run directory written via ``--log-dir`` (the newest
  ``checkpoints/*.npz`` runtime checkpoint is used and the manifest's
  recorded activation is honoured);
- a runtime :class:`~repro.runtime.checkpoint.Checkpoint` ``.npz``
  (``agent/q_net`` subtree);
- a bare :func:`repro.nn.checkpoints.save_network` ``.npz``
  (``p0``, ``p1``, ... keys).

A runtime checkpoint whose agent records ``n_atoms`` (the
distributional C51 head) is refused: its last layer holds
``n_actions x n_atoms`` logits, not Q-values.

The MLP architecture is reconstructed from the weight shapes alone
(:func:`repro.nn.checkpoints.mlp_from_arrays`), so no config object has
to travel with the weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union
from zipfile import BadZipFile

import numpy as np

from repro.config import recorded_observation_mode
from repro.nn.checkpoints import mlp_from_arrays
from repro.nn.network import MLP

PathLike = Union[str, Path]


class PolicyLoadError(ValueError):
    """``load_policy`` could not produce a usable Q-network."""


@dataclass(frozen=True)
class PolicyBundle:
    """A loaded Q-network as plain arrays (picklable across workers).

    Workers receive the bundle once via the pool initializer and build
    the actual :class:`~repro.nn.network.MLP` locally, so network
    objects never cross process boundaries.
    """

    arrays: Dict[str, np.ndarray]
    activation: str = "relu"
    source: str = ""
    #: Observation codec the network was trained under ("raw",
    #: "compact", or "descriptor"); drives how rollout states are
    #: assembled.  Compact-trained nets are full-width (the agent
    #: reconstructs full states before the forward pass), so "compact"
    #: batches exactly like "raw".
    observation_mode: str = "raw"

    @property
    def n_actions(self) -> int:
        """Q-head width (last bias length)."""
        last = max(
            (int(k[1:]) for k in self.arrays if k[1:].isdigit()),
            default=0,
        )
        return int(self.arrays[f"p{last}"].shape[0])

    def build_network(self) -> MLP:
        """Materialize the MLP (validated shapes/dtypes)."""
        return mlp_from_arrays(
            self.arrays,
            activation=self.activation,
            source=self.source or "policy bundle",
        )


def _manifest_config(run_dir: Path) -> dict:
    """The recorded run config of a run dir's manifest, if any."""
    manifest = run_dir / "manifest.json"
    if not manifest.exists():
        return {}
    try:
        config = json.loads(manifest.read_text()).get("config") or {}
    except (OSError, ValueError):
        return {}
    return config if isinstance(config, dict) else {}


def _manifest_activation(run_dir: Path) -> str | None:
    """The recorded hidden-unit activation of a run dir, if any."""
    value = _manifest_config(run_dir).get("activation")
    return str(value) if value else None


def _manifest_observation_mode(run_dir: Path) -> str | None:
    """The recorded observation codec of a run dir, if any."""
    return recorded_observation_mode(_manifest_config(run_dir))


def _q_net_arrays(path: Path) -> Dict[str, np.ndarray]:
    """Extract ``p*`` weight arrays from either ``.npz`` flavour."""
    try:
        with np.load(path) as data:
            files = list(data.files)
            if "__meta__" in files:
                # Runtime checkpoint: arrays live at slash-joined tree
                # paths; the Q-network is the agent/q_net subtree.
                payload = json.loads(bytes(data["__meta__"]).decode("utf-8"))
                agent = (payload.get("state") or {}).get("agent") or {}
                if "n_atoms" in agent:
                    raise PolicyLoadError(
                        f"{path}: the agent has a distributional (C51) "
                        f"head ({agent['n_atoms']} atoms per action); "
                        "policy screening needs a scalar Q head"
                    )
                prefix = "agent/q_net/"
                arrays = {
                    k[len(prefix):]: np.array(data[k])
                    for k in files
                    if k.startswith(prefix)
                }
                if not arrays:
                    raise PolicyLoadError(
                        f"{path}: runtime checkpoint has no "
                        "agent/q_net arrays (not a DQN training "
                        "checkpoint?)"
                    )
                return arrays
            arrays = {
                k: np.array(data[k])
                for k in files
                if k.startswith("p") and k[1:].isdigit()
            }
            if not arrays:
                raise PolicyLoadError(
                    f"{path}: no p0/p1/... parameter arrays "
                    "(not a save_network archive?)"
                )
            return arrays
    except PolicyLoadError:
        raise
    except (OSError, ValueError, BadZipFile) as exc:
        raise PolicyLoadError(f"{path}: unreadable npz archive: {exc}")


def load_policy(
    path: PathLike,
    *,
    activation: str | None = None,
    observation_mode: str | None = None,
) -> PolicyBundle:
    """Load a trained Q-network from any supported checkpoint flavour.

    ``activation`` and ``observation_mode`` override auto-detection
    (run-dir manifests record both; bare weight archives default to the
    Table 1 ReLU over raw states).
    """
    target = Path(path)
    if target.is_dir():
        from repro.runtime.checkpoint import latest_checkpoint

        ckpt = latest_checkpoint(target / "checkpoints") or (
            latest_checkpoint(target)
        )
        if ckpt is None:
            raise PolicyLoadError(
                f"{target}: no .npz checkpoint found (looked in "
                f"{target / 'checkpoints'} and {target})"
            )
        if activation is None:
            activation = _manifest_activation(target)
        if observation_mode is None:
            observation_mode = _manifest_observation_mode(target)
        target = ckpt
    if not target.exists():
        raise PolicyLoadError(f"{target}: no such checkpoint")
    arrays = _q_net_arrays(target)
    return PolicyBundle(
        arrays=arrays,
        activation=activation or "relu",
        source=str(target),
        observation_mode=observation_mode or "raw",
    )


@dataclass(frozen=True)
class RolloutResult:
    """Outcome of one ligand's greedy rollout."""

    best_score: float
    evaluations: int
    steps: int
    termination: str


@dataclass(frozen=True)
class RolloutStats:
    """Batch-level counters of one :func:`greedy_rollout` call."""

    #: Batched Q-network forward passes executed.
    forward_passes: int
    #: Batched pose-scoring group calls executed (one per step with any
    #: active ligand, plus the initial-pose scoring pass).
    score_batch_calls: int


@dataclass
class BatchedRolloutState:
    """Structure-of-arrays working set of one lockstep rollout batch.

    One row / entry per ligand, index-aligned with the ``engines``
    sequence.  Keeping the per-ligand bookkeeping columnar lets the hot
    loop slice active rows (``batch[idx]`` for the forward pass) and
    update counters without touching Python-object state per ligand.
    """

    #: (n, input_dim) state rows in the network's parameter dtype;
    #: rows are re-encoded in place each step.
    batch: np.ndarray
    #: (n,) emitted state length per ligand (rows are right-padded).
    dims: np.ndarray
    #: (n,) best score seen so far.
    best: np.ndarray
    #: (n,) scorer evaluations consumed.
    evaluations: np.ndarray
    #: (n,) consecutive below-threshold score count.
    streak: np.ndarray
    #: (n,) bool: still stepping.
    active: np.ndarray
    #: (n,) actions applied so far.
    steps_taken: np.ndarray
    #: (n,) COM-distance escape radius.
    escape_radius: np.ndarray
    #: Per-ligand termination reason (mutated when a ligand stops).
    termination: List[str]
    #: Descriptor codecs (None for raw/compact state rows).
    codecs: list | None

    def results(self) -> List[RolloutResult]:
        """Freeze the per-ligand columns into :class:`RolloutResult`."""
        return [
            RolloutResult(
                best_score=float(self.best[i]),
                evaluations=int(self.evaluations[i]),
                steps=int(self.steps_taken[i]),
                termination=self.termination[i],
            )
            for i in range(self.batch.shape[0])
        ]


def _validated_dims(
    engines: Sequence, codecs, input_dim: int, n_actions: int
) -> list[int]:
    """Per-engine emitted state lengths, validated against the policy."""
    dims = []
    for i, eng in enumerate(engines):
        d = codecs[i].spec.dim if codecs is not None else eng.state_dim()
        if d > input_dim:
            raise PolicyLoadError(
                f"ligand state dim {d} exceeds the policy's input "
                f"dim {input_dim}; the checkpoint was trained on a "
                "smaller complex than this screen targets"
            )
        if eng.n_actions != n_actions:
            raise PolicyLoadError(
                f"engine exposes {eng.n_actions} actions but the "
                f"policy head is {n_actions}-wide"
            )
        dims.append(d)
    return dims


def _encode_row(state: BatchedRolloutState, engines: Sequence, i: int):
    """Re-encode ligand ``i``'s state row in place (no staging array)."""
    if state.codecs is not None:
        state.codecs[i].encode_into(state.batch[i])
    else:
        engines[i].state_into(state.batch[i])


def _score_active(engines: Sequence, idx: np.ndarray) -> np.ndarray:
    """Current-pose scores of ``engines[idx]`` via one grouped call.

    Engines whose scorers share receptor-side state (field scorers over
    one :class:`~repro.scoring.field.FieldMaps`) are fused into one
    batched kernel invocation by
    :func:`repro.scoring.scorers.score_pose_group`; every other scorer
    is evaluated through its own single-pose path, so each entry is
    bitwise what ``engines[i].score()`` would have produced.
    """
    from repro.scoring.scorers import score_pose_group

    return score_pose_group(
        [(engines[i].scorer, engines[i].ligand_coords()) for i in idx]
    )


def greedy_rollout(
    network: MLP,
    engines: Sequence,
    *,
    max_steps: int = 120,
    escape_factor: float = 4.0 / 3.0,
    low_score_patience: int = 20,
    low_score_threshold: float = -100000.0,
    observation_mode: str = "raw",
) -> tuple[List[RolloutResult], RolloutStats]:
    """Greedy-dock many ligands in lockstep with batched Q inference.

    Every step assembles one ``(n_active, input_dim)`` state batch and
    runs **one** forward pass; each row's argmax action is applied to
    its engine, and the resulting poses of every active ligand are then
    scored through **one** grouped scoring call (:func:`_score_active`)
    rather than one ``scorer.score`` per ligand.  Ligands whose state
    vector is shorter than the network's input (smaller library
    compounds) are zero-padded on the right -- the padded tail is
    constant, so the rollout stays a deterministic function of
    (weights, engine).  Per-ligand termination mirrors
    :class:`repro.env.docking_env.DockingEnv`: escape beyond
    ``escape_factor`` x the initial COM distance, or
    ``low_score_patience`` consecutive scores below
    ``low_score_threshold``.

    ``observation_mode`` must match the codec the policy was trained
    under: "descriptor" assembles pocket-relative feature rows via
    :func:`repro.env.observation.make_codec`; "raw" and "compact" both
    use full paper-shaped state rows (compact-trained nets reconstruct
    full states during training, so their input layer is full-width).

    Results are bit-identical to the sequential per-ligand reference
    loop (kept as ``_greedy_rollout_loop`` and pinned by tests): state
    rows, scores, and termination decisions all reproduce the same
    floats.  Returns the per-ligand results (input order) and the
    batch-level :class:`RolloutStats`.
    """
    params = network.params()
    input_dim = int(params[0].shape[0])
    n_actions = int(params[-1].shape[0])
    dtype = params[0].dtype
    n = len(engines)
    if n == 0:
        return [], RolloutStats(forward_passes=0, score_batch_calls=0)
    codecs = None
    if observation_mode == "descriptor":
        from repro.env.observation import make_codec

        codecs = [make_codec("descriptor", eng) for eng in engines]
    dims = _validated_dims(engines, codecs, input_dim, n_actions)
    state = BatchedRolloutState(
        batch=np.zeros((n, input_dim), dtype=dtype),
        dims=np.asarray(dims, dtype=np.int64),
        best=np.empty(n),
        evaluations=np.zeros(n, dtype=np.int64),
        streak=np.zeros(n, dtype=np.int64),
        active=np.ones(n, dtype=bool),
        steps_taken=np.zeros(n, dtype=np.int64),
        escape_radius=np.empty(n),
        termination=["max_steps"] * n,
        codecs=codecs,
    )
    for i, eng in enumerate(engines):
        eng.reset(observe=False)
        state.escape_radius[i] = escape_factor * eng.initial_com_distance()
        _encode_row(state, engines, i)
    idx = np.arange(n)
    scores = _score_active(engines, idx)
    score_batch_calls = 1
    for i, eng in enumerate(engines):
        eng.set_external_score(scores[i])
        state.best[i] = scores[i]
        state.evaluations[i] += 1
    forward_passes = 0
    for _step in range(max_steps):
        idx = np.flatnonzero(state.active)
        if idx.size == 0:
            break
        q = network.predict(state.batch[idx])
        forward_passes += 1
        # Row-wise argmax: ties resolve to the lowest action index,
        # matching DQNAgent.greedy_action.
        actions = np.argmax(q, axis=1)
        for row, i in enumerate(idx):
            engines[i].apply_action(int(actions[row]))
        scores = _score_active(engines, idx)
        score_batch_calls += 1
        for row, i in enumerate(idx):
            eng = engines[i]
            score = float(scores[row])
            eng.set_external_score(score)
            state.evaluations[i] += 1
            state.steps_taken[i] += 1
            if score > state.best[i]:
                state.best[i] = score
            if score < low_score_threshold:
                state.streak[i] += 1
            else:
                state.streak[i] = 0
            if eng.com_distance() > state.escape_radius[i]:
                state.active[i] = False
                state.termination[i] = "escape"
            elif state.streak[i] >= low_score_patience:
                state.active[i] = False
                state.termination[i] = "deep_penetration"
            else:
                _encode_row(state, engines, i)
    return state.results(), RolloutStats(
        forward_passes=forward_passes,
        score_batch_calls=score_batch_calls,
    )


def _greedy_rollout_loop(
    network: MLP,
    engines: Sequence,
    *,
    max_steps: int = 120,
    escape_factor: float = 4.0 / 3.0,
    low_score_patience: int = 20,
    low_score_threshold: float = -100000.0,
    observation_mode: str = "raw",
) -> tuple[List[RolloutResult], int]:
    """The pre-batching per-ligand rollout loop, kept verbatim.

    Reference implementation for the bit-equality pins on
    :func:`greedy_rollout` (tests and the screening bench): scores each
    ligand through its engine's single-pose ``score()`` and re-encodes
    rows via the staging-array codec path.  Returns the per-ligand
    results and the number of forward passes.
    """
    params = network.params()
    input_dim = int(params[0].shape[0])
    n_actions = int(params[-1].shape[0])
    dtype = params[0].dtype
    n = len(engines)
    if n == 0:
        return [], 0
    codecs = None
    if observation_mode == "descriptor":
        from repro.env.observation import make_codec

        codecs = [make_codec("descriptor", eng) for eng in engines]
    dims = _validated_dims(engines, codecs, input_dim, n_actions)
    batch = np.zeros((n, input_dim), dtype=dtype)
    best = np.empty(n)
    evaluations = np.zeros(n, dtype=np.int64)
    streak = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    steps_taken = np.zeros(n, dtype=np.int64)
    termination = ["max_steps"] * n
    escape_radius = np.empty(n)
    for i, eng in enumerate(engines):
        eng.reset(observe=False)
        escape_radius[i] = escape_factor * eng.initial_com_distance()
        batch[i, : dims[i]] = (
            codecs[i].encode() if codecs is not None else eng.state_vector()
        )
        best[i] = eng.score()
        evaluations[i] += 1
    forward_passes = 0
    for _step in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        q = network.predict(batch[idx])
        forward_passes += 1
        # Row-wise argmax: ties resolve to the lowest action index,
        # matching DQNAgent.greedy_action.
        actions = np.argmax(q, axis=1)
        for row, i in enumerate(idx):
            eng = engines[i]
            eng.apply_action(int(actions[row]))
            score = eng.score()
            evaluations[i] += 1
            steps_taken[i] += 1
            if score > best[i]:
                best[i] = score
            if score < low_score_threshold:
                streak[i] += 1
            else:
                streak[i] = 0
            if eng.com_distance() > escape_radius[i]:
                active[i] = False
                termination[i] = "escape"
            elif streak[i] >= low_score_patience:
                active[i] = False
                termination[i] = "deep_penetration"
            else:
                batch[i, : dims[i]] = (
                    codecs[i].encode()
                    if codecs is not None
                    else eng.state_vector()
                )
    return (
        [
            RolloutResult(
                best_score=float(best[i]),
                evaluations=int(evaluations[i]),
                steps=int(steps_taken[i]),
                termination=termination[i],
            )
            for i in range(n)
        ],
        forward_passes,
    )
