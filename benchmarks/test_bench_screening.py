"""Bench: the sharded virtual-screening service at full 2BSM scale.

Screens a small synthetic library against the 3,264-atom receptor with
the incremental (Verlet-list) scorer and measures:

- serial (``workers=1``) and sharded (``workers=2``) ligands/min;
- the serial-vs-sharded speedup (asserted >= ``SPEEDUP_BOUND`` when the
  runner actually has >= 2 cores; on starved single-core runners the
  artifact records ``core_starved: true`` instead -- the vector-env
  bench precedent);
- ranking identity: sharded and serial runs must produce the identical
  ranking (bit-equal scores, same order);
- resume identity: an interrupted-then-resumed screen must reproduce
  the uninterrupted ranking bit-for-bit;
- the policy-mode rollout hot path: ligands/min of the pre-batching
  per-ligand reference loop versus the batched ``greedy_rollout`` over
  field-scored engines sharing one ``FieldMaps`` (results asserted
  bit-equal), plus the ``policy_forward_passes`` /
  ``score_batch_calls`` counters a policy-strategy screen reports.

Writes ``BENCH_screening.json`` for the CI screening-bench job (the
artifact renders in ``repro inspect`` when dropped into a run dir).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.metadock.library import generate_library
from repro.runtime.loop import RunInterrupted, RuntimeContext
from repro.screening import ScreeningConfig, run_screening

#: Artifact path (repo root under plain pytest; override via env).
ARTIFACT = Path(
    os.environ.get("BENCH_SCREENING_JSON", "BENCH_screening.json")
)

N_LIGANDS = 6
BUDGET = 240
SEED = 2018
#: Greedy-rollout step cap for the policy-mode leg.
POLICY_STEPS = 40
#: Required sharded (workers=2) over serial throughput on multi-core
#: runners.  Two workers on independent shards should approach 2x; 1.5x
#: leaves headroom for pool startup and the receptor pickle.
SPEEDUP_BOUND = 1.5


def _config(workers: int, shard_size: int = 1) -> ScreeningConfig:
    return ScreeningConfig(
        strategy="random",
        budget=BUDGET,
        seed=SEED,
        workers=workers,
        shard_size=shard_size,
        scoring_method="incremental",
    )


class _InterruptAfterFirstMemo:
    """Stop once results.json exists: after the first memoized shard."""

    def __init__(self, results_path: Path):
        self.results_path = results_path

    @property
    def stop_requested(self) -> bool:
        return self.results_path.exists()


def test_bench_screening(paper_complex, tmp_path):
    library = generate_library(
        paper_complex.config, N_LIGANDS, seed=SEED
    )

    t0 = time.perf_counter()
    serial = run_screening(paper_complex, library, _config(workers=1))
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    sharded = run_screening(paper_complex, library, _config(workers=2))
    sharded_s = time.perf_counter() - t0

    # Ranking identity: scores bit-equal, order identical.
    assert sharded.hits == serial.hits

    # Interrupt after the first shard, resume, compare bit-for-bit.
    run_dir = tmp_path / "interrupted"
    guard = _InterruptAfterFirstMemo(run_dir / "results.json")
    with pytest.raises(RunInterrupted):
        run_screening(
            paper_complex,
            library,
            _config(workers=1),
            runtime=RuntimeContext(run_dir, guard=guard),
        )
    resumed = run_screening(
        paper_complex,
        library,
        _config(workers=1),
        runtime=RuntimeContext(run_dir),
    )
    assert resumed.hits == serial.hits
    assert resumed.shards_cached >= 1
    resume_bit_equal = resumed.hits == serial.hits

    # Policy-mode leg: the batched rollout versus the per-ligand
    # reference loop over field-scored engines sharing one FieldMaps
    # (the same sharing the screening workers set up), then a real
    # policy-strategy screen for the batching counters.
    from repro.nn.checkpoints import save_network
    from repro.nn.network import build_mlp
    from repro.scoring.field import FieldMaps
    from repro.screening.driver import _engine_for
    from repro.screening.policy import _greedy_rollout_loop, greedy_rollout

    maps = FieldMaps(paper_complex.receptor)

    def _field_engines():
        return [
            _engine_for(
                paper_complex,
                e.ligand,
                scoring_method="field",
                scoring_kwargs={"cells": maps},
            )
            for e in library
        ]

    # Warm the lazy per-atom-type maps before timing so neither leg
    # pays the one-time map builds (they are shared receptor-side
    # state, not rollout work).
    for eng in _field_engines():
        eng.score()

    loop_engines = _field_engines()
    net = build_mlp(
        max(e.state_dim() for e in loop_engines),
        [32],
        loop_engines[0].n_actions,
        rng=SEED,
    )
    t0 = time.perf_counter()
    loop_results, _ = _greedy_rollout_loop(
        net, loop_engines, max_steps=POLICY_STEPS
    )
    loop_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch_results, roll_stats = greedy_rollout(
        net, _field_engines(), max_steps=POLICY_STEPS
    )
    batched_s = time.perf_counter() - t0
    assert batch_results == loop_results

    policy_path = tmp_path / "policy.npz"
    save_network(net, policy_path)
    pol = run_screening(
        paper_complex,
        library,
        ScreeningConfig(
            strategy="policy",
            policy_path=str(policy_path),
            policy_max_steps=POLICY_STEPS,
            seed=SEED,
            workers=1,
            shard_size=3,
            scoring_method="field",
        ),
    )
    assert pol.policy_forward_passes > 0
    assert pol.score_batch_calls > 0

    cores = os.cpu_count() or 1
    core_starved = cores < 2
    speedup = serial_s / sharded_s if sharded_s > 0 else float("inf")
    payload = {
        "receptor_atoms": paper_complex.receptor.n_atoms,
        "ligand_atoms": paper_complex.ligand_crystal.n_atoms,
        "n_ligands": N_LIGANDS,
        "budget": BUDGET,
        "scoring_method": "incremental",
        "serial_seconds": round(serial_s, 4),
        "sharded_seconds": round(sharded_s, 4),
        "serial_ligands_per_min": round(serial.ligands_per_min, 2),
        "sharded_ligands_per_min": round(sharded.ligands_per_min, 2),
        "sharded_speedup": round(speedup, 3),
        "cpu_cores": cores,
        "core_starved": core_starved,
        "ranking_identical": sharded.hits == serial.hits,
        "resume_bit_equal": resume_bit_equal,
        "resumed_shards_cached": resumed.shards_cached,
        "policy_max_steps": POLICY_STEPS,
        "policy_loop_ligands_per_min": round(
            N_LIGANDS / loop_s * 60.0, 2
        ),
        "policy_batched_ligands_per_min": round(
            N_LIGANDS / batched_s * 60.0, 2
        ),
        "policy_batched_speedup": round(loop_s / batched_s, 3)
        if batched_s > 0
        else float("inf"),
        "policy_rollout_bit_equal": batch_results == loop_results,
        "policy_rollout_forward_passes": roll_stats.forward_passes,
        "policy_forward_passes": pol.policy_forward_passes,
        "score_batch_calls": pol.score_batch_calls,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))

    assert payload["ranking_identical"]
    assert payload["resume_bit_equal"]
    assert payload["policy_rollout_bit_equal"]
    if not core_starved:
        assert speedup >= SPEEDUP_BOUND, (
            f"sharded speedup {speedup:.2f}x < {SPEEDUP_BOUND}x "
            f"on a {cores}-core runner"
        )
