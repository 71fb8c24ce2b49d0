"""Runtime layer: full-state checkpoints and interrupt-resume equality.

The load-bearing property is bit-exactness: a run interrupted at any
safe boundary and resumed from its checkpoint must produce exactly the
history, losses, and network weights of the uninterrupted run.  The
parametrized tests below prove it across the replay flavours (dense,
compact, prioritized + n-step via the rainbow variant) for both the
sequential :class:`~repro.rl.trainer.Trainer` and the segment-based
:class:`~repro.rl.vector_trainer.VectorTrainer`.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import signal

import numpy as np
import pytest

from repro.config import ci_scale_config
from repro.env.factory import make_env
from repro.env.factory import make_vector_env
from repro.experiments.figure4 import build_agent, build_agent_for_env
from repro.nn.checkpoints import CheckpointMismatchError
from repro.rl.nstep import NStepTransitionBuffer
from repro.rl.prioritized_replay import PrioritizedReplayMemory
from repro.rl.replay import ReplayMemory
from repro.rl.trainer import Trainer
from repro.rl.vector_trainer import VectorTrainer
from repro.runtime import (
    CHECKPOINT_DIR_NAME,
    Checkpoint,
    CheckpointReadError,
    RunInterrupted,
    RunLoop,
    RuntimeContext,
    ShutdownGuard,
    checkpoint_info,
    latest_checkpoint,
    memoized,
    read_meta,
)
from repro.runtime.checkpoint import SCHEMA_VERSION


# ---------------------------------------------------------------------------
# helpers


def _assert_state_equal(a, b, path=""):
    """Deep equality of two state_dict trees (NaN-aware arrays)."""
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys {set(a) ^ set(b)}"
        for k in a:
            _assert_state_equal(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        assert np.array_equal(a, b, equal_nan=True), path
    elif isinstance(a, float):
        assert a == b or (a != a and b != b), f"{path}: {a} vs {b}"
    else:
        assert a == b, f"{path}: {a} vs {b}"


def _assert_histories_equal(a, b):
    assert a.total_steps == b.total_steps
    assert len(a.episodes) == len(b.episodes)
    for ea, eb in zip(a.episodes, b.episodes):
        da, db = dataclasses.asdict(ea), dataclasses.asdict(eb)
        assert set(da) == set(db)
        for k in da:
            va, vb = da[k], db[k]
            if isinstance(va, float) and va != va:
                assert vb != vb, (k, va, vb)
            else:
                assert va == vb, (k, va, vb)


def _make_trainer(cfg, on_episode_end=None):
    env = make_env(cfg)
    agent = build_agent_for_env(cfg, env)
    trainer = Trainer(
        env,
        agent,
        episodes=cfg.episodes,
        max_steps_per_episode=cfg.max_steps_per_episode,
        learning_start=cfg.learning_start,
        target_update_steps=cfg.target_update_steps,
        train_interval=cfg.train_interval,
        on_episode_end=on_episode_end,
    )
    return env, agent, trainer


def _make_vector(cfg, n_envs=2):
    venv = make_vector_env(cfg, n_envs=n_envs)
    agent = build_agent(cfg, venv.state_dim, venv.n_actions)
    vtrainer = VectorTrainer(
        venv,
        agent,
        learning_start=cfg.learning_start,
        target_update_steps=cfg.target_update_steps,
        train_interval=cfg.train_interval,
    )
    return venv, agent, vtrainer


class _StopAfterCheckpoint:
    """Guard stub: latches once the phase's snapshot reaches ``step``.

    Emulates a signal arriving while the next segment runs, so the loop
    stops right after the checkpoint covering ``step`` is on disk.
    """

    def __init__(self, runtime, phase, step):
        self._runtime = runtime
        self._phase = phase
        self._step = step

    @property
    def stop_requested(self):
        path = self._runtime.checkpoint_path(self._phase)
        if not path.exists():
            return False
        return read_meta(path).get("global_step", 0) >= self._step


# ---------------------------------------------------------------------------
# checkpoint file format


class TestCheckpointFormat:
    def test_roundtrip_arrays_and_scalars(self, tmp_path):
        state = {
            "weights": {"w0": np.arange(6.0).reshape(2, 3)},
            "flags": {"n": 3, "name": "adam", "nan": float("nan")},
            "ring": np.arange(4, dtype=np.int64),
        }
        meta = {"phase": "t", "complete": False, "global_step": 40}
        path = tmp_path / "c.npz"
        Checkpoint(state=state, meta=meta).write(path)
        loaded = Checkpoint.load(path)
        assert loaded.meta == meta
        _assert_state_equal(loaded.state, state)

    def test_read_meta_skips_arrays(self, tmp_path):
        path = tmp_path / "c.npz"
        Checkpoint(
            state={"big": np.zeros(128)}, meta={"global_step": 7}
        ).write(path)
        assert read_meta(path)["global_step"] == 7

    def test_checkpoint_info(self, tmp_path):
        path = tmp_path / "c.npz"
        Checkpoint(
            state={"a": np.zeros(3), "b": {"c": np.ones(2)}},
            meta={"phase": "x"},
        ).write(path)
        info = checkpoint_info(path)
        assert info["n_arrays"] == 2
        assert info["meta"]["phase"] == "x"
        assert info["file_bytes"] == path.stat().st_size

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        path = tmp_path / "c.npz"
        Checkpoint(state={"a": np.zeros(2)}, meta={}).write(path)
        Checkpoint(state={"a": np.ones(2)}, meta={}).write(path)
        assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]
        assert np.array_equal(Checkpoint.load(path).state["a"], np.ones(2))

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(CheckpointReadError):
            read_meta(path)

    def test_missing_meta_member_raises(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(CheckpointReadError, match="__meta__"):
            Checkpoint.load(path)

    def test_unknown_schema_raises(self, tmp_path):
        blob = json.dumps(
            {"schema": SCHEMA_VERSION + 1, "meta": {}, "state": {}}
        ).encode()
        buf = io.BytesIO()
        np.savez(buf, __meta__=np.frombuffer(blob, dtype=np.uint8))
        path = tmp_path / "future.npz"
        path.write_bytes(buf.getvalue())
        with pytest.raises(CheckpointReadError, match="schema"):
            read_meta(path)

    def test_latest_checkpoint(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nope") is None
        assert latest_checkpoint(tmp_path) is None
        old = tmp_path / "a.npz"
        new = tmp_path / "b.npz"
        Checkpoint(state={}, meta={"k": 1}).write(old)
        Checkpoint(state={}, meta={"k": 2}).write(new)
        os.utime(old, (1, 1))
        os.utime(new, (2, 2))
        assert latest_checkpoint(tmp_path) == new


# ---------------------------------------------------------------------------
# shutdown guard


class TestShutdownGuard:
    def test_request_stop_latches(self):
        guard = ShutdownGuard()
        assert not guard.stop_requested
        guard.request_stop()
        assert guard.stop_requested

    def test_signal_latches_and_restores_handler(self):
        previous = signal.getsignal(signal.SIGTERM)
        with ShutdownGuard() as guard:
            os.kill(os.getpid(), signal.SIGTERM)
            assert guard.stop_requested
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_second_signal_raises(self):
        with ShutdownGuard() as guard:
            os.kill(os.getpid(), signal.SIGTERM)
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
            assert guard.stop_requested


# ---------------------------------------------------------------------------
# component state_dict round-trips


class TestComponentRoundTrips:
    def _fill(self, mem, n, state_dim, rng):
        for _ in range(n):
            mem.push(
                rng.normal(size=state_dim),
                int(rng.integers(6)),
                float(rng.normal()),
                rng.normal(size=state_dim),
                bool(rng.integers(2)),
            )

    def test_dense_replay_roundtrip(self, rng):
        a = ReplayMemory(32, 5, seed=1)
        self._fill(a, 20, 5, rng)
        b = ReplayMemory(32, 5, seed=999)
        b.load_state_dict(a.state_dict())
        _assert_state_equal(b.state_dict(), a.state_dict())

    def test_replay_capacity_mismatch(self):
        a = ReplayMemory(32, 5)
        b = ReplayMemory(16, 5)
        with pytest.raises(CheckpointMismatchError):
            b.load_state_dict(a.state_dict())

    def test_replay_layout_mismatch(self, rng):
        dense = ReplayMemory(16, 5)
        compact = ReplayMemory(
            16, 5, static_prefix=np.zeros(2, dtype=np.float32)
        )
        with pytest.raises(CheckpointMismatchError):
            compact.load_state_dict(dense.state_dict())

    def test_compact_static_prefix_mismatch(self):
        a = ReplayMemory(16, 5, static_prefix=np.zeros(2, dtype=np.float32))
        b = ReplayMemory(16, 5, static_prefix=np.ones(2, dtype=np.float32))
        with pytest.raises(CheckpointMismatchError):
            b.load_state_dict(a.state_dict())

    def test_prioritized_roundtrip_and_mismatch(self, rng):
        a = PrioritizedReplayMemory(16, 4, seed=3)
        self._fill(a, 10, 4, rng)
        b = PrioritizedReplayMemory(16, 4, seed=7)
        b.load_state_dict(a.state_dict())
        _assert_state_equal(b.state_dict(), a.state_dict())
        dense = ReplayMemory(16, 4)
        with pytest.raises(CheckpointMismatchError):
            dense.load_state_dict(a.state_dict())

    def test_nstep_roundtrip(self, rng):
        a = NStepTransitionBuffer(3, 0.95)
        for _ in range(2):  # partial window
            a.push(
                rng.normal(size=4),
                1,
                0.5,
                rng.normal(size=4),
                False,
            )
        b = NStepTransitionBuffer(3, 0.95)
        b.load_state_dict(a.state_dict())
        _assert_state_equal(b.state_dict(), a.state_dict())
        c = NStepTransitionBuffer(2, 0.95)
        with pytest.raises(CheckpointMismatchError):
            c.load_state_dict(a.state_dict())


# ---------------------------------------------------------------------------
# runtime context: memoization + interrupt checks


class TestRuntimeContext:
    def test_memoized_computes_once(self, tmp_path):
        rt = RuntimeContext(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"x": 2}

        assert rt.cached("unit", compute) == {"x": 2}
        assert rt.cached("unit", compute) == {"x": 2}
        assert len(calls) == 1
        # persists across context instances
        rt2 = RuntimeContext(tmp_path)
        assert rt2.cached("unit", compute) == {"x": 2}
        assert len(calls) == 1

    def test_memoized_decode_on_hit(self, tmp_path):
        @dataclasses.dataclass
        class Point:
            x: int

        rt = RuntimeContext(tmp_path)
        first = memoized(rt, "p", lambda: Point(3), decode=lambda d: Point(**d))
        assert first == Point(3)
        rt2 = RuntimeContext(tmp_path)
        hit = memoized(rt2, "p", lambda: Point(99), decode=lambda d: Point(**d))
        assert hit == Point(3)

    def test_memoized_without_runtime(self):
        assert memoized(None, "k", lambda: 7) == 7

    def test_check_interrupt_raises(self, tmp_path):
        guard = ShutdownGuard()
        rt = RuntimeContext(tmp_path, guard=guard)
        rt.check_interrupt("phase-a")  # no-op while quiet
        guard.request_stop()
        with pytest.raises(RunInterrupted, match="phase-a"):
            rt.check_interrupt("phase-a")


# ---------------------------------------------------------------------------
# the tentpole property: interrupt + resume == uninterrupted


TRAINER_VARIANTS = [
    pytest.param("dqn", False, id="dqn-dense"),
    pytest.param("dqn", True, id="dqn-compact"),
    pytest.param("rainbow", False, id="rainbow-dense"),
    pytest.param("rainbow", True, id="rainbow-compact"),
    pytest.param("distributional", True, id="distributional-compact"),
]


class TestTrainerResume:
    @pytest.mark.parametrize("variant,compact", TRAINER_VARIANTS)
    def test_interrupt_resume_bit_exact(self, tmp_path, variant, compact):
        cfg = ci_scale_config(
            episodes=6,
            seed=3,
            max_steps=12,
            variant=variant,
            observation_mode="compact" if compact else "raw",
        )

        # Uninterrupted reference (same cadence: snapshots are pure
        # observation in episode mode, but keep the runs symmetric).
        rt_a = RuntimeContext(tmp_path / "a", checkpoint_every=2)
        env, agent_a, trainer = _make_trainer(cfg)
        hist_a = RunLoop(rt_a, phase="t").run_episodes(trainer)
        env.close()
        state_a = agent_a.state_dict()

        # Interrupted at the end of episode 2 (SIGTERM semantics).
        guard = ShutdownGuard()

        def on_end(stats):
            if stats.episode == 2:
                guard.request_stop()

        rt_b = RuntimeContext(tmp_path / "b", checkpoint_every=2, guard=guard)
        env, _, trainer_b = _make_trainer(cfg, on_episode_end=on_end)
        with pytest.raises(RunInterrupted):
            RunLoop(rt_b, phase="t").run_episodes(trainer_b)
        env.close()
        assert rt_b.checkpoint_path("t").exists()
        assert not read_meta(rt_b.checkpoint_path("t"))["complete"]

        # Resume into a fresh process-equivalent: new env + new agent.
        rt_c = RuntimeContext(tmp_path / "b", checkpoint_every=2)
        env, agent_c, trainer_c = _make_trainer(cfg)
        hist_b = RunLoop(rt_c, phase="t").run_episodes(trainer_c)
        env.close()

        _assert_histories_equal(hist_a, hist_b)
        _assert_state_equal(agent_c.state_dict(), state_a)

    def test_completed_phase_short_circuits(self, tmp_path):
        cfg = ci_scale_config(episodes=3, seed=1, max_steps=8)
        rt = RuntimeContext(tmp_path, checkpoint_every=0)
        env, agent_a, trainer = _make_trainer(cfg)
        hist_a = RunLoop(rt, phase="t").run_episodes(trainer)
        env.close()

        env, agent_b, trainer_b = _make_trainer(cfg)
        hist_b = RunLoop(rt, phase="t").run_episodes(trainer_b)
        env.close()
        _assert_histories_equal(hist_a, hist_b)
        # The short-circuit restored the trained weights into agent_b
        # without running a single episode.
        _assert_state_equal(agent_b.state_dict(), agent_a.state_dict())


class TestVectorResume:
    @pytest.mark.parametrize("variant", ["dqn", "rainbow"])
    def test_interrupt_resume_bit_exact(self, tmp_path, variant):
        cfg = ci_scale_config(
            episodes=4, seed=5, max_steps=12, variant=variant
        )
        total, segment = 72, 24

        # Reference: segmented but uninterrupted.  Segmentation is part
        # of the run definition, so the cadence must match.
        rt_a = RuntimeContext(tmp_path / "a", checkpoint_every=segment)
        venv, agent_a, vt = _make_vector(cfg)
        stats_a = RunLoop(rt_a, phase="v").run_steps(vt, total)
        venv.close()
        state_a = agent_a.state_dict()

        # Interrupted right after the first segment's checkpoint.
        rt_b = RuntimeContext(tmp_path / "b", checkpoint_every=segment)
        rt_b.guard = _StopAfterCheckpoint(rt_b, "v", segment)
        venv, _, vt_b = _make_vector(cfg)
        with pytest.raises(RunInterrupted):
            RunLoop(rt_b, phase="v").run_steps(vt_b, total)
        venv.close()
        meta = read_meta(rt_b.checkpoint_path("v"))
        assert not meta["complete"]
        assert meta["next_step"] == segment

        # Resume with fresh envs + agent.
        rt_c = RuntimeContext(tmp_path / "b", checkpoint_every=segment)
        venv, agent_c, vt_c = _make_vector(cfg)
        stats_b = RunLoop(rt_c, phase="v").run_steps(vt_c, total)
        venv.close()

        assert stats_b.total_steps == total
        assert stats_b.episodes
        _assert_histories_equal(stats_a, stats_b)
        _assert_state_equal(agent_c.state_dict(), state_a)

    def test_completed_phase_short_circuits(self, tmp_path):
        cfg = ci_scale_config(episodes=2, seed=2, max_steps=10)
        rt = RuntimeContext(tmp_path, checkpoint_every=0)
        venv, agent_a, vt = _make_vector(cfg)
        stats_a = RunLoop(rt, phase="v").run_steps(vt, 40)
        venv.close()

        venv, agent_b, vt_b = _make_vector(cfg)
        stats_b = RunLoop(rt, phase="v").run_steps(vt_b, 40)
        venv.close()
        _assert_histories_equal(stats_a, stats_b)
        _assert_state_equal(agent_b.state_dict(), agent_a.state_dict())


class TestLegacyStepCheckpoint:
    """Step-mode checkpoints written before the single payload: an
    aggregate ``meta["stats"]``, no ``meta["history"]``, and (actor/
    learner runs) the episode rows under ``state["trainer"]``."""

    OLD_STATS = {
        "total_steps": 24,
        "episodes_completed": 3,
        "best_score": {"__float__": "nan"},
        "mean_reward": 0.125,
        "wall_seconds": 2.5,
        "steps_per_second": 9.6,
        "timer_report": "old report",
        "worker_restarts": 0,
    }

    def test_vector_checkpoint_resumes(self, tmp_path):
        cfg = ci_scale_config(episodes=4, seed=5, max_steps=12)
        total, segment = 72, 24

        rt_a = RuntimeContext(tmp_path / "a", checkpoint_every=segment)
        venv, agent_a, vt = _make_vector(cfg)
        hist_a = RunLoop(rt_a, phase="v").run_steps(vt, total)
        venv.close()

        rt_b = RuntimeContext(tmp_path / "b", checkpoint_every=segment)
        rt_b.guard = _StopAfterCheckpoint(rt_b, "v", segment)
        venv, _, vt_b = _make_vector(cfg)
        with pytest.raises(RunInterrupted):
            RunLoop(rt_b, phase="v").run_steps(vt_b, total)
        venv.close()

        # Rewrite the snapshot into the old layout.
        path = rt_b.checkpoint_path("v")
        ckpt = Checkpoint.load(path)
        first_segment_rows = len(ckpt.meta.pop("history")["episodes"])
        ckpt.meta["stats"] = self.OLD_STATS
        ckpt.write(path)

        rt_c = RuntimeContext(tmp_path / "b", checkpoint_every=segment)
        venv, agent_c, vt_c = _make_vector(cfg)
        hist_c = RunLoop(rt_c, phase="v").run_steps(vt_c, total)
        venv.close()

        _assert_state_equal(agent_c.state_dict(), agent_a.state_dict())
        assert hist_c.total_steps == total
        assert hist_c.wall_seconds > 2.5
        # The old payload kept no rows for vector runs: the upgraded
        # history holds the episodes closed after the resume.
        key = lambda e: (e.steps, e.total_reward, e.termination)
        assert [key(e) for e in hist_c.episodes] == [
            key(e) for e in hist_a.episodes[first_segment_rows:]
        ]
        meta = read_meta(path)
        assert meta["complete"] and "stats" not in meta

    def test_actor_learner_rows_move_to_meta(self):
        from repro.rl.trainer import EpisodeStats, TrainingHistory
        from repro.runtime.loop import upgrade_checkpoint
        from repro.utils.serialization import _to_jsonable, decode_history

        rows = TrainingHistory(
            episodes=[
                EpisodeStats(
                    episode=i,
                    steps=12,
                    total_reward=float(i),
                    avg_max_q=0.5,
                    best_score=float("-inf"),
                    final_score=1.0,
                    epsilon=0.9,
                    mean_loss=0.25,
                    learning_active=True,
                    termination="segment-boundary",
                    min_crystal_rmsd=2.0,
                )
                for i in range(2)
            ],
            total_steps=24,
        )
        old = Checkpoint(
            state={
                "agent": {},
                "trainer": {
                    "num_actors": 2,
                    "episode_index": 2,
                    "history": _to_jsonable(rows),
                },
            },
            meta={"mode": "steps", "next_step": 24, "stats": self.OLD_STATS},
        )
        history = decode_history(upgrade_checkpoint(old).meta["history"])
        assert history.episodes == rows.episodes
        assert history.total_steps == 24
        assert history.wall_seconds == 2.5
        assert history.timer_report == "old report"
        assert old.meta["observation"] is None


# ---------------------------------------------------------------------------
# CLI: resume + inspect integration


class TestCliResume:
    def _run_figure4(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "run"
        code = main(
            [
                "figure4",
                "--episodes", "4",
                "--max-steps", "10",
                "--checkpoint-every", "2",
                "--log-dir", str(run_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        return run_dir

    def test_resume_records_lineage(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = self._run_figure4(tmp_path, capsys)
        first = json.loads((run_dir / "manifest.json").read_text())
        assert first["status"] == "completed"
        assert first["parent_run_id"] is None

        # Resuming a completed run short-circuits on the checkpoint but
        # still re-dispatches and seals a new manifest with lineage.
        assert main(["resume", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "resuming 'figure4'" in out
        second = json.loads((run_dir / "manifest.json").read_text())
        assert second["status"] == "completed"
        assert second["parent_run_id"] == first["run_id"]
        assert second["resume_step"] is not None

    def test_resume_upgrades_legacy_compact_flag(self, tmp_path, capsys):
        # A run started with the removed --compact-states flag recorded
        # it next to observation_mode="raw"; resume must still rebuild
        # the compact codec (the checkpoint refuses any other).
        from repro.cli import main

        run_dir = tmp_path / "run"
        argv = [
            "figure4", "--episodes", "2", "--max-steps", "8",
            "--observation-mode", "compact", "--log-dir", str(run_dir),
        ]
        assert main(argv) == 0
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["extra"]["cli_args"].update(
            observation_mode="raw", compact_states=True
        )
        manifest_path.write_text(json.dumps(manifest))

        assert main(["resume", str(run_dir)]) == 0
        capsys.readouterr()
        resumed = json.loads(manifest_path.read_text())
        assert resumed["config"]["observation_mode"] == "compact"
        assert "compact_states" not in resumed["config"]

    @pytest.mark.parametrize(
        "argv,newer_flags",
        [
            (
                ["figure4", "--episodes", "2", "--max-steps", "8"],
                ["scoring_method", "observation_mode", "trainer",
                 "num_actors", "checkpoint_every"],
            ),
            (
                ["screen", "--ligands", "2", "--budget", "20",
                 "--strategy", "random"],
                ["workers", "shard_size", "top_k", "scoring_method",
                 "policy", "policy_max_steps", "checkpoint_every"],
            ),
        ],
        ids=["figure4", "screen"],
    )
    def test_resume_fills_flags_the_manifest_lacks(
        self, tmp_path, capsys, argv, newer_flags
    ):
        # Runs recorded before a flag existed resume with the parser's
        # default for it.
        from repro.cli import main

        run_dir = tmp_path / "run"
        assert main([*argv, "--log-dir", str(run_dir)]) == 0
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for name in newer_flags:
            del manifest["extra"]["cli_args"][name]
        manifest_path.write_text(json.dumps(manifest))

        assert main(["resume", str(run_dir)]) == 0
        capsys.readouterr()
        resumed = json.loads(manifest_path.read_text())
        assert resumed["status"] == "completed"
        cli_args = resumed["extra"]["cli_args"]
        assert cli_args["checkpoint_every"] == 0
        assert cli_args["scoring_method"] == "exact"

    def test_resume_ignores_recorded_async_backend(
        self, tmp_path, capsys, monkeypatch
    ):
        # Curricula started with the removed ``--backend async`` recorded
        # it in their manifest; they resume on the in-process vector env
        # and end with the weights of an uninterrupted run.
        import repro.runtime
        from repro.cli import main
        from repro.runtime import INTERRUPT_EXIT_CODE

        argv = [
            "curriculum", "--complexes", "2", "--episodes", "4",
            "--eval-episodes", "1", "--checkpoint-every", "60",
        ]
        full_dir, run_dir = tmp_path / "full", tmp_path / "run"
        assert main([*argv, "--log-dir", str(full_dir)]) == 0

        class StopMidCurriculum:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            @property
            def stop_requested(self):
                path = run_dir / CHECKPOINT_DIR_NAME / "curriculum.npz"
                return path.exists() and read_meta(path)["global_step"] >= 120

        with monkeypatch.context() as patch:
            patch.setattr(repro.runtime, "ShutdownGuard", StopMidCurriculum)
            code = main([*argv, "--log-dir", str(run_dir)])
        assert code == INTERRUPT_EXIT_CODE
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["status"] == "interrupted"
        manifest["extra"]["cli_args"]["backend"] = "async"
        manifest_path.write_text(json.dumps(manifest))

        assert main(["resume", str(run_dir)]) == 0
        capsys.readouterr()
        assert json.loads(manifest_path.read_text())["status"] == "completed"
        for phase in ("curriculum", "single"):
            name = f"{phase}.npz"
            with np.load(run_dir / CHECKPOINT_DIR_NAME / name) as got, \
                    np.load(full_dir / CHECKPOINT_DIR_NAME / name) as want:
                keys = [k for k in want.files if k.startswith("agent/")]
                assert keys
                assert [k for k in got.files if k.startswith("agent/")] == keys
                for k in keys:
                    np.testing.assert_array_equal(got[k], want[k], err_msg=k)

    def test_resume_missing_manifest_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["resume", str(tmp_path / "nowhere")]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_sigterm_subprocess_resume(self, tmp_path):
        """Real signal path: SIGTERM -> exit 130 -> resume completes."""
        import subprocess
        import sys
        import time

        run_dir = tmp_path / "run"
        env = dict(os.environ)
        src = str((
            __import__("pathlib").Path(__file__).parent.parent / "src"
        ))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, "-m", "repro", "figure4",
            "--episodes", "40", "--max-steps", "20",
            "--checkpoint-every", "1", "--log-dir", str(run_dir),
        ]
        proc = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        ckpt = run_dir / CHECKPOINT_DIR_NAME / "figure4.npz"
        deadline = time.monotonic() + 60
        while not ckpt.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ckpt.exists(), "no checkpoint before deadline"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 130
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"

        done = subprocess.run(
            [sys.executable, "-m", "repro", "resume", str(run_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["parent_run_id"] is not None
        assert read_meta(ckpt)["complete"]

    def test_inspect_renders_checkpoints(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = self._run_figure4(tmp_path, capsys)
        assert (run_dir / CHECKPOINT_DIR_NAME / "figure4.npz").exists()
        assert main(["inspect", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Checkpoints" in out
        assert "figure4.npz" in out
        assert "4/4 ep" in out
