#!/usr/bin/env python
"""Virtual screening: rank a synthetic ligand library against a receptor.

This is the workload the paper's introduction motivates -- filtering a
library of candidate compounds by docking score.  A ZINC-like library is
generated, every compound's pose is optimized with a METADOCK
metaheuristic strategy, and the ranked hit list plus per-strategy
comparison is printed.

Run:
    python examples/virtual_screening.py [--ligands N] [--budget E]
"""

from __future__ import annotations

import argparse
import time

from repro.chem.builders import build_complex
from repro.config import ComplexConfig
from repro.metadock.library import generate_library
from repro.screening.driver import ScreeningConfig, run_screening
from repro.utils.tables import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ligands", type=int, default=8)
    parser.add_argument("--budget", type=int, default=250)
    parser.add_argument(
        "--strategy",
        default="scatter",
        choices=["ga", "local", "random", "scatter", "montecarlo"],
    )
    args = parser.parse_args()

    cfg = ComplexConfig(
        receptor_atoms=300,
        ligand_atoms=14,
        receptor_radius=11.0,
        pocket_depth=4.0,
        initial_offset=8.0,
        rotatable_bonds=2,
        seed=11,
    )
    print(f"Building receptor ({cfg.receptor_atoms} atoms) ...")
    built = build_complex(cfg)

    print(f"Generating {args.ligands}-compound library ...")
    library = generate_library(cfg, args.ligands, seed=42)

    t0 = time.perf_counter()
    print(
        f"Screening with strategy={args.strategy!r}, "
        f"budget={args.budget} evaluations/compound ..."
    )
    config = ScreeningConfig(
        strategy=args.strategy, budget=args.budget, seed=7
    )
    hits = run_screening(built, library, config).hits
    elapsed = time.perf_counter() - t0

    rows = [
        (rank + 1, h.compound_id, h.n_atoms, f"{h.best_score:.2f}", h.evaluations)
        for rank, h in enumerate(hits)
    ]
    print()
    print(
        render_table(
            ["rank", "compound", "atoms", "best score", "evaluations"],
            rows,
            title=f"Screening results ({elapsed:.1f}s total)",
            align=["r", "l", "r", "r", "r"],
        )
    )


if __name__ == "__main__":
    main()
