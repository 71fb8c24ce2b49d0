"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_removed_grid_scoring_method_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["figure4", "--scoring-method", "grid"]
            )
        assert exc.value.code == 2
        assert "invalid choice: 'grid'" in capsys.readouterr().err

    def test_removed_compact_states_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["figure4", "--compact-states"])
        assert exc.value.code == 2
        assert "--compact-states" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["figure4", "--observation-mode", "compact"]
        )
        assert args.observation_mode == "compact"

    def test_choices_come_from_the_sources_of_truth(self):
        from repro.config import VARIANTS
        from repro.scoring.scorers import SCORING_METHODS

        for flag, values in (
            ("--variant", VARIANTS),
            ("--scoring-method", SCORING_METHODS),
        ):
            for value in values:
                build_parser().parse_args(["figure4", flag, value])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure4", "--variant", "c52"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "RMSprop" in out
        assert "match the published Table 1" in out

    def test_geometry(self, capsys):
        code = main(
            ["geometry", "--receptor-atoms", "150", "--ligand-atoms", "10"]
        )
        assert code == 0
        assert "crystal pose" in capsys.readouterr().out

    def test_figure4_tiny(self, capsys):
        code = main(
            ["figure4", "--episodes", "4", "--max-steps", "15", "--seed", "1"]
        )
        assert code == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_figure4_variant(self, capsys):
        code = main(
            [
                "figure4",
                "--episodes", "3",
                "--max-steps", "10",
                "--variant", "ddqn",
            ]
        )
        assert code == 0

    def test_comm_ablation(self, capsys):
        assert main(["comm-ablation", "--steps", "20"]) == 0
        assert "steps/sec" in capsys.readouterr().out

    def test_screen(self, capsys):
        code = main(
            [
                "screen",
                "--ligands", "2",
                "--budget", "40",
                "--strategy", "random",
            ]
        )
        assert code == 0
        assert "LIG00000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags", [["--workers", "0"], ["--shard-size", "0"]]
    )
    def test_screen_rejects_zero_counts(self, capsys, flags):
        argv = ["screen", "--ligands", "1", "--budget", "4", *flags]
        assert main(argv) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_blind(self, capsys):
        code = main(["blind", "--spots", "3", "--budget", "40", "--workers", "1"])
        assert code == 0
        assert "Blind docking" in capsys.readouterr().out

    def test_baselines(self, capsys):
        assert main(["baselines", "--budget", "150"]) == 0
        assert "dqn-docking" in capsys.readouterr().out

    def test_reward_ablation(self, capsys):
        code = main(
            ["reward-ablation", "--episodes", "3", "--schemes", "sign"]
        )
        assert code == 0
        assert "reward scheme" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "gamma", "0.5", "0.99", "--episodes", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep over gamma" in out
        assert "best setting" in out

    def test_curriculum(self, capsys, tmp_path):
        code = main(
            [
                "curriculum",
                "--complexes", "2",
                "--episodes", "2",
                "--eval-episodes", "1",
                "--log-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Curriculum transfer" in out
        # The vector env's per-step span landed in the run directory.
        metrics = (tmp_path / "run" / "metrics.csv").read_text()
        assert "span/env-step/vector-step" in metrics

    def test_sweep_value_parsing(self):
        from repro.cli import _parse_value

        assert _parse_value("3") == 3
        assert _parse_value("0.5") == 0.5
        assert _parse_value("relu") == "relu"
