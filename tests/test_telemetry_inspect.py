"""``repro inspect``: golden rendering and the CLI round trip."""

import json

import pytest

from repro.cli import main
from repro.telemetry.summary import load_run, render_summary


def make_golden_run(root):
    """A fully deterministic run directory (no live timestamps)."""
    d = root / "golden-run"
    d.mkdir()
    manifest = {
        "run_id": "figure4-20260101-000000-abc123",
        "command": "figure4",
        "seed": 0,
        "config": {"episodes": 2},
        "version": "0.0-test",
        "python_version": "3.11.0",
        "platform": "Linux-x86_64",
        "numpy_version": "1.26.0",
        "git_sha": "0123456789abcdef0123456789abcdef01234567",
        "started_at": "2026-01-01T00:00:00Z",
        "started_unix": 0.0,
        "finished_at": "2026-01-01T00:00:05Z",
        "duration_seconds": 5.0,
        "status": "completed",
        "extra": {},
    }
    (d / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    events = [
        {"event": "run_start", "t": 0.0, "run_id": manifest["run_id"],
         "command": "figure4", "seed": 0},
        {"event": "step", "t": 0.1, "episode": 0, "step": 0,
         "global_step": 1, "action": 3, "reward": 1.0, "score": -12.0,
         "max_q": 1.0, "epsilon": 0.95, "loss": None, "done": False},
        {"event": "episode_end", "t": 1.0, "episode": 0, "steps": 5,
         "total_reward": 3.0, "avg_max_q": 1.5, "best_score": -10.0,
         "final_score": -11.0, "epsilon": 0.9, "mean_loss": 0.25,
         "learning_active": True, "termination": "time-limit",
         "min_crystal_rmsd": None},
        {"event": "episode_end", "t": 2.0, "episode": 1, "steps": 4,
         "total_reward": -1.0, "avg_max_q": 2.5, "best_score": -8.0,
         "final_score": -8.0, "epsilon": 0.8, "mean_loss": 0.125,
         "learning_active": True, "termination": "max-score",
         "min_crystal_rmsd": None},
        {"event": "run_end", "t": 5.0, "status": "completed"},
    ]
    with open(d / "events.jsonl", "w") as fh:
        for e in events:
            fh.write(json.dumps(e) + "\n")
    rows = [
        "name,kind,count,value,mean,std,min,max,p50,p90,p99",
        "episodes,counter,2,2.0,,,,,,,",
        "epsilon,gauge,2,0.8,,,,,,,",
        "reward,histogram,9,,0.2222,0.9162,-1.0,1.0,0.5,1.0,1.0",
        "span/train,span,1,3.0,3.0,,,,,,",
        "span/train/act,span,9,0.9,0.1,,,,,,",
        "span/train/env-step,span,9,1.8,0.2,,,,,,",
    ]
    (d / "metrics.csv").write_text("\n".join(rows) + "\n")
    return d


GOLDEN = """\
# Run figure4-20260101-000000-abc123
run `figure4-20260101-000000-abc123`, repro 0.0-test, seed 0, \
git `0123456789ab`, started 2026-01-01T00:00:00Z, status completed
command: figure4   python 3.11.0 on Linux-x86_64   numpy 1.26.0
finished: 2026-01-01T00:00:05Z   duration: 5.0s
events: 5 total, 1 step records

Episodes
+----+-------+--------+-----------+------------+-------+--------+-------------+
| ep | steps | reward | avg max Q | best score |   eps |   loss | termination |
+----+-------+--------+-----------+------------+-------+--------+-------------+
|  0 |     5 |    3.0 |     1.500 |     -10.00 | 0.900 | 0.2500 | time-limit  |
|  1 |     4 |   -1.0 |     2.500 |      -8.00 | 0.800 | 0.1250 | max-score   |
+----+-------+--------+-----------+------------+-------+--------+-------------+

Figure 4 series (2 learning-active episodes): first 1.500  peak 2.500  \
last 2.500
Q curve: ▁█

Span breakdown
+------------+-------+---------+-----------+
| span       | calls | total s |   mean ms |
+------------+-------+---------+-----------+
| train      |     1 |  3.0000 | 3000.0000 |
|   act      |     9 |  0.9000 |  100.0000 |
|   env-step |     9 |  1.8000 |  200.0000 |
+------------+-------+---------+-----------+

Metrics
+----------+-----------+-------+-------+--------+-----+-----+-----+-----+
| metric   | kind      | count | value |   mean | min | max | p50 | p99 |
+----------+-----------+-------+-------+--------+-----+-----+-----+-----+
| episodes | counter   |     2 |     2 |      - |   - |   - |   - |   - |
| epsilon  | gauge     |     2 |   0.8 |      - |   - |   - |   - |   - |
| reward   | histogram |     9 |     - | 0.2222 |  -1 |   1 | 0.5 |   1 |
+----------+-----------+-------+-------+--------+-----+-----+-----+-----+"""


class TestRenderSummary:
    def test_golden_output(self, tmp_path):
        d = make_golden_run(tmp_path)
        assert render_summary(d) == GOLDEN

    def test_manifest_only_run_renders(self, tmp_path):
        # A crashed run may leave just the manifest behind.
        d = make_golden_run(tmp_path)
        (d / "events.jsonl").unlink()
        (d / "metrics.csv").unlink()
        out = render_summary(d)
        assert "(no episode records)" in out
        assert "(no span records)" in out
        assert "(no metrics snapshot)" in out

    def test_span_fallback_from_events(self, tmp_path):
        # No metrics.csv, but the event log carries a span_summary.
        d = make_golden_run(tmp_path)
        (d / "metrics.csv").unlink()
        with open(d / "events.jsonl", "a") as fh:
            fh.write(json.dumps({
                "event": "span_summary",
                "t": 4.9,
                "spans": [{
                    "path": "train", "name": "train", "parent": None,
                    "count": 1, "total_seconds": 3.0,
                    "mean_seconds": 3.0, "self_seconds": 0.3,
                }],
            }) + "\n")
        out = render_summary(d)
        assert "Span breakdown" in out
        assert "train" in out

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path)

    def test_bench_artifact_rendered(self, tmp_path):
        # A BENCH_train_step.json dropped next to the run files gets its
        # own table; absent artifacts leave the golden output untouched.
        d = make_golden_run(tmp_path)
        baseline = render_summary(d)
        payload = {
            "state_dim": 16599,
            "batch_size": 32,
            "learn_speedup": 3.957,
            "replay_bytes_compact": 440_534_748,
        }
        (d / "BENCH_train_step.json").write_text(
            json.dumps(payload) + "\n"
        )
        out = render_summary(d)
        assert out.startswith(baseline)
        assert "BENCH_train_step.json" in out
        assert "learn_speedup" in out
        assert "3.957" in out
        assert "440,534,748" in out

    def test_score_step_artifact_rendered(self, tmp_path):
        # The scoring bench's artifact is registered in BENCH_ARTIFACTS
        # and rendered like the others.
        d = make_golden_run(tmp_path)
        payload = {
            "incremental_steps_per_second": 1055.3,
            "speedup_incremental_vs_exact": 8.9,
            "rebuild_rate": 0.166,
        }
        (d / "BENCH_score_step.json").write_text(
            json.dumps(payload) + "\n"
        )
        out = render_summary(d)
        assert "BENCH_score_step.json" in out
        assert "speedup_incremental_vs_exact" in out
        assert "8.9" in out

    def test_unreadable_bench_artifact_noted(self, tmp_path):
        d = make_golden_run(tmp_path)
        (d / "BENCH_actor_learner.json").write_text("{not json")
        out = render_summary(d)
        assert "(BENCH_actor_learner.json: unreadable)" in out


class TestLoadRun:
    def test_events_of_filters(self, tmp_path):
        record = load_run(make_golden_run(tmp_path))
        assert len(record.events_of("episode_end")) == 2
        assert record.events_of("nope") == []
        assert record.manifest.command == "figure4"
        assert len(record.metrics) == 6


class TestCli:
    def test_figure4_then_inspect(self, tmp_path, capsys):
        d = tmp_path / "run"
        code = main([
            "figure4", "--episodes", "2", "--max-steps", "5",
            "--log-dir", str(d),
        ])
        assert code == 0
        assert (d / "manifest.json").exists()
        assert (d / "events.jsonl").exists()
        assert (d / "metrics.csv").exists()
        capsys.readouterr()

        assert main(["inspect", str(d)]) == 0
        out = capsys.readouterr().out
        assert "Episodes" in out
        assert "Span breakdown" in out
        assert "engine-step" in out  # deep spans reached the snapshot
        assert "status completed" in out

    def test_field_run_inspect_renders_both_fractions(
        self, tmp_path, capsys, cold_map_cache
    ):
        # The first run builds its maps cold; the second one, over the
        # same receptor, loads them from the on-disk cache.
        for run, loads in (("field-run", "0 on-disk cache loads"),
                           ("field-rerun", "1 on-disk cache load")):
            d = tmp_path / run
            code = main([
                "figure4", "--episodes", "2", "--max-steps", "5",
                "--scoring-method", "field", "--log-dir", str(d),
            ])
            assert code == 0
            capsys.readouterr()
            assert main(["inspect", str(d)]) == 0
            lines = capsys.readouterr().out.splitlines()
            at = lines.index("Field scorer")
            assert lines[at + 1].startswith("  precomputed maps: ")
            assert lines[at + 1].endswith(f" MiB ({loads})")
            assert lines[at + 2].startswith(
                "  near-field (exact-path) atom fraction: mean "
            )
            assert lines[at + 3].startswith(
                "  outer-level (shell) atom fraction: mean "
            )

    def test_inspect_golden_via_cli(self, tmp_path, capsys):
        d = make_golden_run(tmp_path)
        assert main(["inspect", str(d)]) == 0
        assert capsys.readouterr().out.rstrip("\n") == GOLDEN

    def test_inspect_missing_dir_errors(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err
