"""Bench: actor/learner runtime vs single-process sync training.

The tentpole claim of :mod:`repro.rl.distributed` is that N actor
processes feeding the learner through shared-memory rings beat the
single-process synchronous loop once the actors have cores to run on
(the env step and the learn step then overlap instead of alternating).
This smoke trains the same agent over the same transition budget on

- the single-process sync path (1-env :class:`VectorTrainer`), and
- the actor/learner runtime at 1, 2, and 4 actors,

and writes a ``BENCH_actor_learner.json`` artifact (consumed by the CI
job) with the measured steps/second and the best speedup over sync.

The speedup claim assumes one core per actor plus one for the learner.
On runners with fewer cores the processes time-share and the runtime
can legitimately lose to sync without any code regression, so the
artifact records ``cpu_count`` and a ``core_starved`` flag
(``cpu_count < max_actors + 1``) and the assertions only run on
machines with enough cores -- a core-starved result is informational,
never a failure (the CI job reads the flag the same way).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.chem.builders import build_complex
from repro.config import ci_scale_config
from repro.env.factory import make_env, make_vector_env
from repro.experiments.figure4 import build_agent_for_env
from repro.rl.distributed import ActorLearnerTrainer
from repro.rl.vector_trainer import VectorTrainer

#: Where the throughput artifact lands (repo root under plain pytest;
#: override with BENCH_ACTOR_LEARNER_JSON).
ARTIFACT = Path(
    os.environ.get("BENCH_ACTOR_LEARNER_JSON", "BENCH_actor_learner.json")
)

ACTOR_COUNTS = (1, 2, 4)
SYNC_EVERY = 25
#: Measured transitions per configuration; a multiple of every
#: ``n * SYNC_EVERY`` so all warm-up boundaries align.
TOTAL_STEPS = 400


def _bench_config():
    return ci_scale_config(
        episodes=10,
        seed=0,
        receptor_atoms=800,
        ligand_atoms=20,
        max_steps=60,
        actor_sync_every=SYNC_EVERY,
    )


def _measure(trainer, warmup: int) -> float:
    """Steps/second of ``TOTAL_STEPS`` after a ``warmup``-step segment.

    The warm-up segment absorbs one-time costs (worker spawn, first
    weight broadcast, allocator warm-up) so the measured segment is
    steady-state throughput; ``warmup`` doubles as the aligned
    ``start_step`` of the measured segment.
    """
    trainer.run(warmup)
    t0 = time.perf_counter()
    trainer.run(warmup + TOTAL_STEPS, start_step=warmup)
    wall = time.perf_counter() - t0
    return TOTAL_STEPS / max(wall, 1e-9)


def test_bench_actor_learner_vs_sync():
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("the actor/learner runtime needs a fork-capable OS")

    cfg = _bench_config()
    built = build_complex(cfg.complex)

    def env_fn():
        return make_env(cfg, built)

    results = {}
    probe = make_env(cfg, built)
    try:
        spec = getattr(probe, "observation_spec", None)
        state_dim = int(probe.state_dim)
        state_dtype = getattr(probe, "state_dtype", np.float64)

        # Single-process sync baseline: same agent geometry, same budget.
        venv = make_vector_env(cfg, builts=[built])
        try:
            sync_trainer = VectorTrainer(
                venv,
                build_agent_for_env(cfg, probe),
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
            )
            results["sync"] = _measure(sync_trainer, SYNC_EVERY)
        finally:
            venv.close()

        for n in ACTOR_COUNTS:
            trainer = ActorLearnerTrainer(
                [env_fn] * n,
                build_agent_for_env(cfg, probe),
                state_dim=state_dim,
                state_dtype=state_dtype,
                sync_every=SYNC_EVERY,
                ring_capacity=cfg.actor_ring_capacity,
                max_steps_per_episode=cfg.max_steps_per_episode,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
                observation_spec=spec,
                seed=cfg.seed,
            )
            try:
                results[n] = _measure(trainer, n * SYNC_EVERY)
            finally:
                trainer.close()
    finally:
        probe.close()

    cores = os.cpu_count() or 1
    best = max(results[n] for n in ACTOR_COUNTS)
    payload = {
        "total_steps": TOTAL_STEPS,
        "sync_every": SYNC_EVERY,
        "cpu_count": cores,
        "core_starved": cores < max(ACTOR_COUNTS) + 1,
        "sync_steps_per_second": round(results["sync"], 2),
        "speedup_best": round(best / results["sync"], 3),
    }
    for n in ACTOR_COUNTS:
        payload[f"actor_learner_{n}_steps_per_second"] = round(
            results[n], 2
        )
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nactor-learner throughput: {payload}")

    if payload["core_starved"]:
        pytest.skip(
            f"core-starved ({cores} cores < {max(ACTOR_COUNTS) + 1} "
            "processes): actor-learner vs sync is not a regression "
            "signal here; artifact written with core_starved=true"
        )
    assert best >= results["sync"], payload
    assert results[2] >= results[1], payload
