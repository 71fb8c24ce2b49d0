"""The run-lifecycle layer: checkpointed training loops for every driver.

:class:`RuntimeContext` owns one run directory's durable state -- the
``checkpoints/`` folder (one rolling ``.npz`` per training phase), the
``results.json`` memo of non-RL work (metaheuristic baselines, policy
evaluations), and the optional :class:`~repro.runtime.signals.ShutdownGuard`
/ :class:`~repro.telemetry.run.TelemetryRun` wiring.

:class:`RunLoop` hosts every trainer under that context, with one
checkpoint payload (agent + trainer + telemetry state; progress
counters and the episode history in the meta document):

- :meth:`RunLoop.run_episodes` drives a
  :class:`~repro.rl.trainer.Trainer`, checkpointing at episode
  boundaries.  ``env.reset()`` is deterministic, so a restored run
  replays the exact trajectory an uninterrupted one would have -- the
  resume is bit-for-bit.
- :meth:`RunLoop.run_steps` drives a step-driven trainer
  (:class:`~repro.rl.vector_trainer.VectorTrainer`,
  :class:`~repro.rl.distributed.ActorLearnerTrainer`) in fixed segments
  of ``checkpoint_every`` environment steps.  The envs reset and open
  episodes close (n-step windows flushed) at every segment boundary
  *whether or not* a checkpoint interrupts there, so
  segmented-and-resumed equals segmented-and-not.

Experiment drivers pass ``runtime=None`` to keep the classic
zero-overhead path: the loop then simply calls ``trainer.run()``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.runtime.checkpoint import Checkpoint
from repro.runtime.signals import ShutdownGuard
from repro.utils.serialization import (
    _from_jsonable,
    _to_jsonable,
    decode_history,
    dump_json,
    load_json,
)

PathLike = Union[str, Path]

#: Subdirectory of a run dir holding per-phase checkpoints.
CHECKPOINT_DIR_NAME = "checkpoints"

#: File memoizing completed non-RL work units (JSON, atomic writes).
RESULTS_NAME = "results.json"


class RunInterrupted(RuntimeError):
    """A shutdown signal stopped the run at a safe boundary.

    The checkpoint named by ``checkpoint_path`` holds the full state at
    the boundary; ``repro resume <run-dir>`` continues from it.
    """

    def __init__(self, phase: str, checkpoint_path: Optional[Path] = None):
        self.phase = phase
        self.checkpoint_path = checkpoint_path
        where = f" (checkpoint: {checkpoint_path})" if checkpoint_path else ""
        super().__init__(f"run interrupted during phase {phase!r}{where}")


def _phase_slug(phase: str) -> str:
    """File-system-safe checkpoint stem for a phase name."""
    safe = "".join(
        c if (c.isalnum() or c in "-_.") else "-" for c in str(phase)
    )
    return safe.strip("-.") or "phase"


class RuntimeContext:
    """Durable run state: checkpoints, result memos, shutdown, telemetry.

    Parameters
    ----------
    run_dir:
        Directory owning the run's artefacts (usually the telemetry
        ``--log-dir``); created on first checkpoint write.
    checkpoint_every:
        Cadence of mid-run snapshots -- episodes for
        :meth:`RunLoop.run_episodes`, environment steps for
        :meth:`RunLoop.run_steps`.  0 disables cadence snapshots;
        phase-completion and shutdown snapshots are always written.
    guard:
        A :class:`~repro.runtime.signals.ShutdownGuard`; the loops poll
        it at safe boundaries.
    telemetry:
        A :class:`~repro.telemetry.run.TelemetryRun`; checkpoint events
        land in its event log and its counters/gauges ride along in
        every snapshot.
    """

    def __init__(
        self,
        run_dir: PathLike,
        *,
        checkpoint_every: int = 0,
        guard: Optional[ShutdownGuard] = None,
        telemetry=None,
    ):
        self.dir = Path(run_dir)
        self.checkpoint_dir = self.dir / CHECKPOINT_DIR_NAME
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.guard = guard
        self.telemetry = telemetry
        self._results_path = self.dir / RESULTS_NAME
        self._results: dict = (
            load_json(self._results_path)
            if self._results_path.exists()
            else {}
        )

    # -- shutdown ----------------------------------------------------------
    @property
    def stop_requested(self) -> bool:
        """True once the guard latched a termination signal."""
        return self.guard is not None and self.guard.stop_requested

    def check_interrupt(self, phase: str) -> None:
        """Raise :class:`RunInterrupted` if a stop is pending.

        Drivers call this between non-RL work units so a signal during
        e.g. a metaheuristic baseline still exits at a resumable point.
        """
        if self.stop_requested:
            raise RunInterrupted(phase)

    # -- checkpoints -------------------------------------------------------
    def checkpoint_path(self, phase: str) -> Path:
        """Where ``phase``'s rolling checkpoint lives."""
        return self.checkpoint_dir / f"{_phase_slug(phase)}.npz"

    def load_checkpoint(self, phase: str) -> Optional[Checkpoint]:
        """The existing snapshot of ``phase``, or None."""
        path = self.checkpoint_path(phase)
        if not path.exists():
            return None
        return upgrade_checkpoint(Checkpoint.load(path))

    def save_checkpoint(
        self, phase: str, state: dict, meta: dict
    ) -> Path:
        """Atomically (over)write ``phase``'s snapshot."""
        path = self.checkpoint_path(phase)
        meta = {"phase": phase, **meta}
        Checkpoint(state=state, meta=meta).write(path)
        if self.telemetry is not None:
            self.telemetry.emit(
                "checkpoint",
                phase=phase,
                path=path.name,
                complete=bool(meta.get("complete", False)),
                global_step=meta.get("global_step"),
            )
            self.telemetry.flush()
        return path

    # -- result memos ------------------------------------------------------
    def has_result(self, key: str) -> bool:
        """True if ``key`` is already memoized in ``results.json``.

        Lets drivers (e.g. the sharded screener) partition work into
        cached and pending units up front without triggering computes.
        """
        return key in self._results

    def cached(
        self,
        key: str,
        compute: Callable[[], Any],
        *,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """Return the memoized result for ``key`` or compute and store it.

        Results persist in ``results.json`` (atomic writes), so a
        resumed run skips every already-finished unit.  Cache hits come
        back as plain JSON trees; pass ``decode`` to rebuild the
        original dataclass.
        """
        if key in self._results:
            value = self._results[key]
            return decode(value) if decode is not None else value
        value = compute()
        self._results[key] = _to_jsonable(value)
        dump_json(self._results, self._results_path)
        return value


def memoized(
    runtime: Optional[RuntimeContext],
    key: str,
    compute: Callable[[], Any],
    *,
    decode: Optional[Callable[[Any], Any]] = None,
) -> Any:
    """``runtime.cached`` when a runtime is attached, else just compute."""
    if runtime is None:
        return compute()
    return runtime.cached(key, compute, decode=decode)


def upgrade_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """Bring a checkpoint written by an earlier version up to date.

    Applied once, at load, so nothing downstream branches on age:

    - step-mode checkpoints used to carry an aggregate ``meta["stats"]``
      and (actor/learner runs only) the episode rows under
      ``state["trainer"]["history"]``; both become the one
      ``meta["history"]`` every mode now writes;
    - checkpoints from before the observation codecs carry no
      ``"observation"`` key, which reads as "spec-less" (no check);
    - C51 agents from before the categorical head joined ``DQNAgent``
      record ``n_atoms`` but no ``dtype``; they computed in float64.
    """
    agent = ckpt.state.get("agent")
    if isinstance(agent, dict) and "n_atoms" in agent:
        agent.setdefault("dtype", "float64")
    meta = ckpt.meta
    if "history" not in meta:
        stats = _from_jsonable(meta.get("stats") or {})
        rows = (ckpt.state.get("trainer") or {}).get("history") or {}
        meta["history"] = {
            "episodes": rows.get("episodes", []),
            "total_steps": stats.get(
                "total_steps", meta.get("global_step", 0)
            ),
            "wall_seconds": stats.get("wall_seconds", 0.0),
            "timer_report": stats.get("timer_report", ""),
        }
    meta.setdefault("observation", None)
    return ckpt


def _observation_spec(trainer):
    """The codec spec of whatever ``trainer`` collects from, if any."""
    for owner in (
        trainer,
        getattr(trainer, "env", None),
        getattr(trainer, "venv", None),
    ):
        spec = getattr(owner, "observation_spec", None)
        if spec is not None:
            return spec
    return None


def _check_observation(meta: dict, spec) -> None:
    """Refuse to restore a checkpoint written under a different codec.

    A raw-trained Q-network cannot consume descriptor states (and vice
    versa), so codec identity is validated *before* ``_restore``
    mutates the agent.  Spec-less custom envs advertise (and record)
    none and skip the check.
    """
    recorded = meta["observation"]
    if recorded is None or spec is None:
        return
    current = spec.as_dict()
    if recorded != current:
        from repro.nn.checkpoints import CheckpointMismatchError

        raise CheckpointMismatchError(
            "checkpoint was written under observation spec "
            f"{recorded}, but the current environment emits {current}; "
            "resume with the original observation_mode/config"
        )


class RunLoop:
    """Host a trainer under a (possibly absent) runtime context.

    One loop per training phase; multi-phase drivers construct one per
    phase with distinct ``phase`` names so each gets its own rolling
    checkpoint and completed phases short-circuit on resume.  Every
    trainer is hosted the same way: its agent, its own ``state_dict``
    (if it has one -- the actor/learner trainer's RNG streams and
    version counter) and the telemetry registry form the state tree;
    the history its :class:`~repro.rl.learner.LearnerCore` keeps rides
    in the meta document next to the progress counters.
    """

    def __init__(
        self, runtime: Optional[RuntimeContext], *, phase: str = "train"
    ):
        self.runtime = runtime
        self.phase = str(phase)

    def _resume(self, trainer) -> dict:
        """Restore this phase's checkpoint into ``trainer``.

        Returns the checkpoint's meta document, ``{}`` when the phase
        has no checkpoint yet.
        """
        rt = self.runtime
        ckpt = rt.load_checkpoint(self.phase)
        if ckpt is None:
            return {}
        _check_observation(ckpt.meta, _observation_spec(trainer))
        state = ckpt.state
        trainer.agent.load_state_dict(state["agent"])
        if "trainer" in state and hasattr(trainer, "load_state_dict"):
            trainer.load_state_dict(state["trainer"])
        if rt.telemetry is not None and "telemetry" in state:
            rt.telemetry.registry.load_state_dict(state["telemetry"])
        trainer.core.history = decode_history(ckpt.meta["history"])
        return ckpt.meta

    def _snapshot(self, trainer, progress: dict) -> Path:
        """Write this phase's checkpoint: state tree + progress meta."""
        rt = self.runtime
        state = {"agent": trainer.agent.state_dict()}
        if hasattr(trainer, "state_dict"):
            state["trainer"] = trainer.state_dict()
        if rt.telemetry is not None:
            state["telemetry"] = rt.telemetry.registry.state_dict()
        spec = _observation_spec(trainer)
        return rt.save_checkpoint(
            self.phase,
            state,
            {
                **progress,
                "observation": spec.as_dict() if spec else None,
                "history": _to_jsonable(trainer.core.history),
            },
        )

    # -- episode-mode (sequential Trainer) --------------------------------
    def run_episodes(self, trainer):
        """Run a :class:`~repro.rl.trainer.Trainer` to completion.

        Without a runtime this is exactly ``trainer.run()``.  With one,
        the loop restores any existing checkpoint of this phase first
        (returning immediately when the phase already completed), then
        checkpoints every ``checkpoint_every`` episodes and at shutdown,
        raising :class:`RunInterrupted` after the shutdown snapshot.
        """
        rt = self.runtime
        if rt is None:
            return trainer.run()
        meta = self._resume(trainer)
        history = trainer.core.history
        if meta.get("complete"):
            return history
        start_episode = int(meta.get("next_episode", 0))
        every = rt.checkpoint_every

        def snapshot(next_episode: int, gstep: int) -> Path:
            return self._snapshot(
                trainer,
                {
                    "mode": "episodes",
                    "next_episode": next_episode,
                    "episodes_target": trainer.episodes,
                    "global_step": gstep,
                    "complete": next_episode >= trainer.episodes,
                },
            )

        def stop(ep: int, gstep: int) -> bool:
            stopping = rt.stop_requested
            due = every > 0 and (ep + 1 - start_episode) % every == 0
            if (due or stopping) and ep + 1 < trainer.episodes:
                snapshot(ep + 1, gstep)
            return stopping

        trainer.run(
            start_episode=start_episode,
            global_step=int(meta.get("global_step", 0)),
            history=history,
            stop=stop,
        )
        if rt.stop_requested and len(history.episodes) < trainer.episodes:
            raise RunInterrupted(
                self.phase, rt.checkpoint_path(self.phase)
            )
        snapshot(trainer.episodes, history.total_steps)
        return history

    # -- step-mode (VectorTrainer / ActorLearnerTrainer) ------------------
    def run_steps(self, vtrainer, total_steps: int, *, segment_steps=None):
        """Run a step-driven trainer (vector or actor/learner).

        With a runtime, collection happens in fixed segments of
        ``checkpoint_every`` environment steps (one big segment when 0);
        every segment boundary resets the envs, closes the open
        episodes (flushing their n-step windows) and writes a
        checkpoint -- making the segmentation part of the run's
        definition, so interrupted-and-resumed runs equal uninterrupted
        ones exactly.  ``segment_steps`` overrides the segment length --
        the actor/learner driver uses it to align checkpoint boundaries
        with weight-broadcast boundaries (see docs/PARALLELISM.md).
        """
        rt = self.runtime
        if rt is None:
            return vtrainer.run(total_steps)
        meta = self._resume(vtrainer)
        if meta.get("complete"):
            return vtrainer.core.history
        current = int(meta.get("next_step", 0))
        segment = segment_steps or rt.checkpoint_every or total_steps

        while current < total_steps:
            rt.check_interrupt(self.phase)
            target = min(current + segment, total_steps)
            current = vtrainer.run(target, start_step=current).total_steps
            complete = current >= total_steps
            self._snapshot(
                vtrainer,
                {
                    "mode": "steps",
                    "next_step": current,
                    "global_step": current,
                    "steps_target": total_steps,
                    "complete": complete,
                },
            )
            if rt.stop_requested and not complete:
                raise RunInterrupted(
                    self.phase, rt.checkpoint_path(self.phase)
                )
        return vtrainer.core.history
