"""TelemetryRun lifecycle, manifests, and trainer callback wiring."""

import json

import numpy as np
import pytest

from repro.rl.agent import AgentConfig, DQNAgent
from repro.rl.trainer import Trainer
from repro.telemetry import (
    MANIFEST_NAME,
    RunManifest,
    StepInfo,
    TelemetryRun,
    read_events,
    read_metrics_csv,
)

from tests.doubles import MemorySink, RecordingCallback


class ChainEnv:
    """Tiny deterministic env: 'score' walks up/down a line."""

    def __init__(self, horizon=8):
        self.horizon = horizon
        self.score = 0.0
        self.t = 0
        self.n_actions = 2
        self.state_dim = 2

    def reset(self):
        self.score = 0.0
        self.t = 0
        return np.array([0.0, 0.0])

    def step(self, action):
        self.t += 1
        self.score += 1.0 if action == 0 else -1.0
        done = self.t >= self.horizon
        info = {"score": self.score}
        if done:
            info["termination"] = "chain-end"
        state = np.array([self.score, float(self.t)])
        return state, float(1.0 if action == 0 else -1.0), done, info


def tiny_agent() -> DQNAgent:
    return DQNAgent(
        AgentConfig(
            state_dim=2,
            n_actions=2,
            hidden_sizes=(8,),
            replay_capacity=256,
            minibatch_size=4,
            initial_exploration_steps=0,
            epsilon_decay=0.05,
            epsilon_final=0.0,
            learning_rate=0.01,
            seed=0,
        )
    )


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        m = RunManifest.create("figure4", seed=3, config={"episodes": 5})
        path = tmp_path / MANIFEST_NAME
        m.write(path)
        loaded = RunManifest.load(path)
        assert loaded.run_id == m.run_id
        assert loaded.seed == 3
        assert loaded.config == {"episodes": 5}
        assert loaded.status == "running"
        assert loaded.finished_at is None

    def test_finalize_sets_end_fields(self):
        m = RunManifest.create("x")
        m.finalize("completed")
        assert m.status == "completed"
        assert m.finished_at is not None
        assert m.duration_seconds >= 0.0

    def test_unknown_keys_ignored_on_load(self, tmp_path):
        m = RunManifest.create("x")
        data = m.to_dict()
        data["future_field"] = 42
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert RunManifest.load(path).run_id == m.run_id

    def test_header_mentions_run_id(self):
        m = RunManifest.create("x", seed=1)
        assert m.run_id in m.header()
        assert "seed 1" in m.header()


class TestTelemetryRun:
    def test_run_dir_contract(self, tmp_path):
        d = tmp_path / "run"
        with TelemetryRun(d, command="demo", seed=1) as run:
            run.emit("custom", value=3)
            run.registry.inc("steps", 2)
            with run.tracer.span("work"):
                pass
        assert (d / "manifest.json").exists()
        assert (d / "events.jsonl").exists()
        assert (d / "metrics.csv").exists()

        manifest = RunManifest.load(d / "manifest.json")
        assert manifest.status == "completed"
        assert manifest.finished_at is not None

        kinds = [e["event"] for e in read_events(d / "events.jsonl")]
        assert kinds[0] == "run_start"
        assert "custom" in kinds
        assert kinds[-1] == "run_end"
        assert "span_summary" in kinds

        rows = read_metrics_csv(d / "metrics.csv")
        names = {r["name"] for r in rows}
        assert "steps" in names
        assert "span/work" in names

    def test_exception_marks_failed(self, tmp_path):
        d = tmp_path / "run"
        with pytest.raises(RuntimeError):
            with TelemetryRun(d, command="demo"):
                raise RuntimeError("boom")
        manifest = RunManifest.load(d / "manifest.json")
        assert manifest.status == "failed"
        events = read_events(d / "events.jsonl")
        assert events[-1] == {
            **events[-1], "event": "run_end", "status": "failed",
        }

    def test_finalize_idempotent(self, tmp_path):
        run = TelemetryRun(tmp_path / "run", command="demo")
        run.finalize()
        run.finalize()  # no error, no duplicate writes
        run.emit("late")  # dropped silently
        events = read_events(tmp_path / "run" / "events.jsonl")
        assert [e["event"] for e in events].count("run_end") == 1

    def test_extra_sinks_receive_events(self, tmp_path):
        extra = MemorySink()
        with TelemetryRun(
            tmp_path / "run", command="demo", sinks=[extra]
        ) as run:
            run.emit("ping")
        assert "ping" in [r["event"] for r in extra.records]
        assert extra.closed

    def test_step_interval_throttles_step_events(self, tmp_path):
        d = tmp_path / "run"
        with TelemetryRun(d, command="demo", step_interval=5) as run:
            cb = run.callback()
            for g in range(1, 11):
                cb.on_step(
                    StepInfo(
                        episode=0, step=g - 1, global_step=g, action=0,
                        reward=1.0, score=1.0, max_q=0.5, epsilon=0.9,
                        loss=float("nan"), done=False,
                    )
                )
        events = read_events(d / "events.jsonl")
        steps = [e for e in events if e["event"] == "step"]
        assert [e["global_step"] for e in steps] == [5, 10]
        rows = read_metrics_csv(d / "metrics.csv")
        counter = next(r for r in rows if r["name"] == "steps")
        assert counter["value"] == 10.0  # registry sees every step

    def test_rejects_bad_step_interval(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryRun(tmp_path / "run", step_interval=0)

    def test_config_dataclass_lands_in_manifest(self, tmp_path):
        from repro.config import ci_scale_config

        cfg = ci_scale_config(episodes=2, seed=0)
        with TelemetryRun(
            tmp_path / "run", command="demo", config=cfg
        ):
            pass
        manifest = RunManifest.load(tmp_path / "run" / "manifest.json")
        assert manifest.config["episodes"] == 2


class TestCallbackOrdering:
    def test_hook_sequence_in_short_run(self):
        rec = RecordingCallback()
        env = ChainEnv(horizon=4)
        Trainer(
            env,
            tiny_agent(),
            episodes=2,
            max_steps_per_episode=4,
            callbacks=[rec],
        ).run()
        assert rec.hook_sequence() == (
            ["train_start"]
            + (["episode_start"] + ["step"] * 4 + ["episode_end"]) * 2
            + ["train_end"]
        )

    def test_step_info_contents(self):
        rec = RecordingCallback()
        env = ChainEnv(horizon=3)
        Trainer(
            env,
            tiny_agent(),
            episodes=1,
            max_steps_per_episode=3,
            callbacks=[rec],
        ).run()
        infos = [p for name, p in rec.calls if name == "step"]
        assert [i.step for i in infos] == [0, 1, 2]
        assert [i.global_step for i in infos] == [1, 2, 3]
        assert infos[-1].done is True
        assert all(i.episode == 0 for i in infos)
        # max_q comes from the acting forward pass: finite float.
        assert all(np.isfinite(i.max_q) for i in infos)

    def test_episode_end_receives_stats(self):
        rec = RecordingCallback()
        env = ChainEnv(horizon=3)
        history = Trainer(
            env,
            tiny_agent(),
            episodes=2,
            max_steps_per_episode=3,
            callbacks=[rec],
        ).run()
        stats = [p for name, p in rec.calls if name == "episode_end"]
        assert [s.episode for s in stats] == [0, 1]
        assert stats[0] is history.episodes[0]
        (final,) = [p for name, p in rec.calls if name == "train_end"]
        assert final is history

    def test_telemetry_callback_end_to_end(self, tmp_path):
        d = tmp_path / "run"
        with TelemetryRun(d, command="train", seed=0) as run:
            env = ChainEnv(horizon=4)
            Trainer(
                env,
                tiny_agent(),
                episodes=2,
                max_steps_per_episode=4,
                callbacks=[run.callback()],
                tracer=run.tracer,
            ).run()
        events = read_events(d / "events.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds.count("episode_end") == 2
        assert kinds.count("step") == 8
        ep = next(e for e in events if e["event"] == "episode_end")
        assert {"episode", "steps", "total_reward"} <= set(ep)
        rows = read_metrics_csv(d / "metrics.csv")
        names = {r["name"] for r in rows}
        assert {"steps", "episodes", "reward", "max_q", "epsilon"} <= names
        assert any(n.startswith("span/train") for n in names)

    def test_replay_bytes_gauge(self, tmp_path):
        # The callback snapshots the agent's replay footprint at every
        # episode end (the agent arrives via on_train_start(trainer)).
        d = tmp_path / "run"
        agent = tiny_agent()
        with TelemetryRun(d, command="train", seed=0) as run:
            Trainer(
                ChainEnv(horizon=4),
                agent,
                episodes=2,
                max_steps_per_episode=4,
                callbacks=[run.callback()],
            ).run()
            assert (
                run.registry.gauge("replay_bytes").value
                == float(agent.replay.nbytes())
            )
            assert run.registry.gauge("replay_size").value == float(
                len(agent.replay)
            )
        rows = read_metrics_csv(d / "metrics.csv")
        by_name = {r["name"]: r for r in rows}
        assert by_name["replay_bytes"]["value"] > 0
        assert by_name["replay_size"]["value"] == 8.0

    def test_replay_bytes_skipped_without_agent(self, tmp_path):
        # Manual callback use without a trainer must not break.
        with TelemetryRun(tmp_path / "r", command="x") as run:
            cb = run.callback()
            cb.on_train_start(None)
            cb.on_episode_end(
                type("S", (), {"episode": 0, "total_reward": 1.0})()
            )
            names = {r["name"] for r in run.registry.snapshot_rows()}
            assert "replay_bytes" not in names
