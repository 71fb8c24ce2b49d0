"""Communication-layer ablation: RAM vs file engine<->agent channels.

:func:`run_comm_ablation` measures the paper's limitation #1 as
steps/sec with each channel.  The algorithm-variant comparison
(Section 5) is ``repro sweep variant ...``
(:func:`repro.experiments.sweep.run_sweep`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.chem.builders import build_complex
from repro.config import DQNDockingConfig
from repro.env.comm import FileComm, RamComm
from repro.env.factory import make_env
from repro.utils.tables import render_table


@dataclass
class AblationResult:
    """Named measurements with a tabular summary."""

    title: str
    rows: list[tuple] = field(default_factory=list)
    headers: tuple = ()

    def summary(self) -> str:
        """Render as a table."""
        return render_table(self.headers, self.rows, title=self.title)


def run_comm_ablation(
    cfg: DQNDockingConfig, *, steps: int = 300
) -> AblationResult:
    """Measure environment steps/sec with RAM vs file communication.

    Uses a fixed random action sequence on identical environments so the
    only difference is the channel.  ``fsync`` mode is included to bound
    the worst case.
    """
    built = build_complex(cfg.complex)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for label, comm_factory in (
        ("ram", RamComm),
        ("file", lambda: FileComm()),
        ("file+fsync", lambda: FileComm(fsync=True)),
    ):
        env = make_env(cfg, built, comm=comm_factory())
        try:
            env.reset()
            actions = rng.integers(0, env.n_actions, size=steps)
            t0 = time.perf_counter()
            for a in actions:
                _s, _r, done, _info = env.step(int(a))
                if done:
                    env.reset()
            elapsed = time.perf_counter() - t0
        finally:
            env.close()
        rows.append(
            (label, f"{steps / elapsed:10.1f}", f"{1e3 * elapsed / steps:8.3f}")
        )
    return AblationResult(
        title="Comm-layer ablation (paper limitation #1)",
        headers=("channel", "steps/sec", "ms/step"),
        rows=rows,
    )
