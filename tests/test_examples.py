"""Every example script must run end to end (guards against rot).

Each example is executed in a subprocess with reduced arguments; the
assertion is a clean exit plus a recognizable output marker.  Every
file in ``examples/`` must have its ``TestExamples`` case.
"""

import subprocess
import sys
from pathlib import Path

from repro.utils.serialization import decode_history, load_json

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{name} failed:\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--episodes", "6")
        assert "Greedy deployment" in out

    def test_virtual_screening(self):
        out = run_example(
            "virtual_screening.py", "--ligands", "2", "--budget", "60"
        )
        assert "Screening results" in out

    def test_dqn_vs_montecarlo(self):
        out = run_example("dqn_vs_montecarlo.py", "--budget", "200")
        assert "Winner:" in out

    def test_flexible_ligand(self):
        out = run_example("flexible_ligand.py", "--episodes", "4")
        assert "flexible" in out

    def test_cnn_docking(self):
        out = run_example(
            "cnn_docking.py", "--episodes", "4", "--resolution", "12"
        )
        assert "CNN" in out

    def test_analyze_training(self, tmp_path):
        out_file = tmp_path / "run.json"
        out = run_example(
            "analyze_training.py",
            "--episodes", "6",
            "--out", str(out_file),
        )
        assert "Figure 4: average max predicted Q" in out
        assert "terminations:" in out
        assert "frozen-policy eval" in out
        assert len(decode_history(load_json(out_file)).episodes) == 6

    def test_blind_docking(self):
        out = run_example(
            "blind_docking.py",
            "--spots", "3",
            "--budget", "50",
            "--workers", "1",
        )
        assert "Blind docking (3 spots" in out
        assert "from the true pocket center" in out

    def test_paper_scale_slice(self):
        out = run_example(
            "paper_scale.py", "--episodes", "1", "--max-steps", "12"
        )
        assert "throughput" in out
        assert "Table 1" in out


def test_every_example_has_a_case():
    cases = [name for name in vars(TestExamples) if name.startswith("test_")]
    missing = [
        path.name
        for path in sorted(EXAMPLES.glob("*.py"))
        if not any(
            case == f"test_{path.stem}" or case.startswith(f"test_{path.stem}_")
            for case in cases
        )
    ]
    assert not missing, f"examples without a TestExamples case: {missing}"
