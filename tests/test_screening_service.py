"""Tests for the sharded, resumable, policy-capable screening service."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chem.builders import build_complex
from repro.config import ci_scale_config
from repro.metadock.library import generate_library
from repro.nn.checkpoints import (
    CheckpointMismatchError,
    mlp_from_arrays,
    network_arrays,
    save_network,
)
from repro.nn.network import build_mlp
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.loop import RunInterrupted, RuntimeContext
from repro.screening import (
    PolicyLoadError,
    ScreeningConfig,
    greedy_rollout,
    load_policy,
    plan_shards,
    ranking_key,
    run_screening,
)
from repro.screening.driver import _engine_for, screen_ligand
from repro.utils.rng import RngFactory
from tests.conftest import SMALL_COMPLEX_CFG


@pytest.fixture(scope="module")
def library():
    return generate_library(SMALL_COMPLEX_CFG, 5, seed=7)


@pytest.fixture(scope="module")
def built(small_complex):
    return small_complex


# -- shard planning ---------------------------------------------------------
def test_plan_partitions_library_exactly():
    plan = plan_shards(11, 4, seed=3)
    assert [s.shard_id for s in plan] == [0, 1, 2]
    flat = [i for s in plan for i in s.indices]
    assert flat == list(range(11))
    assert all(len(s.indices) == len(s.seeds) for s in plan)


def test_plan_seeds_match_serial_screener_stream():
    # The invariant behind sharded==serial bit-equality: one draw over
    # the whole library from the very stream the serial screener used.
    for shard_size in (1, 2, 7, 100):
        plan = plan_shards(7, shard_size, seed=42)
        assert [x for s in plan for x in s.seeds] == RngFactory(42).seeds(
            "screening", 7
        )


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_shards(-1, 4)
    with pytest.raises(ValueError):
        plan_shards(4, 0)
    assert len(plan_shards(0, 4)) == 0


def test_ranking_key_breaks_ties_by_library_order():
    records = [
        {"best_score": 1.0, "library_index": 3},
        {"best_score": 2.0, "library_index": 2},
        {"best_score": 1.0, "library_index": 0},
    ]
    ranked = sorted(records, key=ranking_key)
    assert [r["library_index"] for r in ranked] == [2, 0, 3]


# -- sharded == serial ------------------------------------------------------
def _legacy_serial(built, library, *, strategy, budget, seed):
    """The pre-driver serial screening algorithm, verbatim."""
    seeds = RngFactory(seed).seeds("screening", len(library))
    hits = [
        screen_ligand(built, e, strategy=strategy, budget=budget, seed=s)
        for e, s in zip(library, seeds)
    ]
    hits.sort(key=lambda h: h.best_score, reverse=True)
    return hits


def test_sharded_matches_serial_across_workers_and_shard_sizes(
    built, library
):
    expected = _legacy_serial(
        built, library, strategy="random", budget=40, seed=3
    )
    for workers in (1, 2):
        for shard_size in (1, 2, 5):
            result = run_screening(
                built,
                library,
                ScreeningConfig(
                    strategy="random",
                    budget=40,
                    seed=3,
                    workers=workers,
                    shard_size=shard_size,
                ),
            )
            assert result.hits == expected, (workers, shard_size)


def test_top_k_and_workers(built, library):
    config = dict(strategy="random", budget=40, seed=3)
    full = run_screening(built, library, ScreeningConfig(**config)).hits
    top = run_screening(
        built,
        library,
        ScreeningConfig(**config, top_k=2, workers=2, shard_size=2),
    ).hits
    assert top == full[:2]


def test_unknown_strategy_raises():
    with pytest.raises(ValueError):
        ScreeningConfig(strategy="quantum", budget=10)


def test_shared_cells_scoring_matches_per_ligand(built, library):
    # The worker-shared receptor cell list must not change any score.
    for method in ("cutoff", "incremental"):
        shared = run_screening(
            built,
            library[:3],
            ScreeningConfig(
                strategy="random",
                budget=30,
                seed=5,
                shard_size=2,
                scoring_method=method,
            ),
        )
        direct = _legacy_serial(
            built, library[:3], strategy="random", budget=30, seed=5
        )
        # Different scorer, so only compare against itself serially:
        serial = run_screening(
            built,
            library[:3],
            ScreeningConfig(
                strategy="random",
                budget=30,
                seed=5,
                shard_size=1,
                scoring_method=method,
            ),
        )
        assert shared.hits == serial.hits
        assert len(direct) == len(shared.hits)


#: ``(compound_id, best_score.hex(), evaluations)`` per ranked hit of
#: the screens below, by ``(scoring_method, strategy)``.  The
#: incremental rows are frozen from the code before
#: ``IncrementalScorer.score_batch`` stopped building a Verlet list per
#: jumped pose; the cutoff rows from the code that made "cutoff" the same
#: scorer at skin 0 (its cell size ``cutoff / 2`` orders the pair sums
#: differently, so some scores sit one ulp from the incremental ones).
#: ``scatter`` scores mostly jumps; ``local`` mostly small improve moves,
#: one pose per ``score_batch`` call.
FROZEN_RANKINGS = {
    ("incremental", "scatter"): [
        ("LIG00000", "0x1.8940deeef1566p+7", 96),
        ("LIG00003", "0x1.5144dcb80d9b2p+7", 96),
        ("LIG00001", "0x1.18de3f8fe2064p+7", 96),
        ("LIG00002", "0x1.83474035a111fp+6", 96),
    ],
    ("incremental", "local"): [
        ("LIG00003", "0x1.76ab065ef9bc3p+7", 112),
        ("LIG00000", "0x1.6678ede28d208p+7", 112),
        ("LIG00001", "0x1.d16a6b8b5bce6p+6", 112),
        ("LIG00002", "0x1.82adb2a43f473p+6", 112),
    ],
    ("cutoff", "scatter"): [
        ("LIG00000", "0x1.8940deeef1566p+7", 96),
        ("LIG00003", "0x1.5144dcb80d9b2p+7", 96),
        ("LIG00001", "0x1.18de3f8fe2064p+7", 96),
        ("LIG00002", "0x1.83474035a111fp+6", 96),
    ],
    ("cutoff", "local"): [
        ("LIG00003", "0x1.76ab065ef9bc4p+7", 112),
        ("LIG00000", "0x1.6678ede28d208p+7", 112),
        ("LIG00001", "0x1.d16a6b8b5bce7p+6", 112),
        ("LIG00002", "0x1.82adb2a43f473p+6", 112),
    ],
}


@pytest.mark.parametrize(
    "method, strategy",
    [
        # Both methods run IncrementalScorer ("cutoff" at skin 0).
        pytest.param(
            *key, id=key[1] if key[0] == "incremental" else "-".join(key)
        )
        for key in sorted(FROZEN_RANKINGS)
    ],
)
def test_incremental_screen_ranking_is_frozen(method, strategy):
    cfg = ci_scale_config(seed=0).complex
    result = run_screening(
        build_complex(cfg),
        generate_library(cfg, 4, seed=11),
        ScreeningConfig(
            strategy=strategy,
            budget=96,
            seed=5,
            scoring_method=method,
        ),
    )
    got = [
        (h["compound_id"], float(h["best_score"]).hex(), h["evaluations"])
        for h in result.ranking
    ]
    assert got == FROZEN_RANKINGS[method, strategy]


# -- library validation -----------------------------------------------------
def test_generate_library_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="max_atoms"):
        generate_library(
            SMALL_COMPLEX_CFG, 2, min_atoms=12, max_atoms=8
        )


def test_generate_library_rejects_nonpositive_bounds():
    with pytest.raises(ValueError, match="min_atoms"):
        generate_library(SMALL_COMPLEX_CFG, 2, min_atoms=0)
    with pytest.raises(ValueError, match="max_atoms"):
        generate_library(SMALL_COMPLEX_CFG, 2, max_atoms=-3)


def test_generate_library_explicit_bounds_respected():
    entries = generate_library(
        SMALL_COMPLEX_CFG, 4, seed=1, min_atoms=8, max_atoms=9
    )
    assert all(8 <= e.n_atoms <= 9 for e in entries)
    # Equal bounds are a valid single-size library.
    entries = generate_library(
        SMALL_COMPLEX_CFG, 2, seed=1, min_atoms=8, max_atoms=8
    )
    assert all(e.n_atoms == 8 for e in entries)


# -- resume semantics -------------------------------------------------------
class _InterruptAfterFirstMemo:
    """Guard that requests a stop once results.json has been written --
    i.e. deterministically after the first shard completes."""

    def __init__(self, results_path):
        self.results_path = results_path

    @property
    def stop_requested(self) -> bool:
        return self.results_path.exists()


def test_interrupted_then_resumed_matches_uninterrupted(
    built, library, tmp_path
):
    config = ScreeningConfig(
        strategy="random", budget=40, seed=3, shard_size=1
    )
    baseline = run_screening(built, library, config)

    run_dir = tmp_path / "run"
    guard = _InterruptAfterFirstMemo(run_dir / "results.json")
    runtime = RuntimeContext(run_dir, guard=guard)
    with pytest.raises(RunInterrupted):
        run_screening(built, library, config, runtime=runtime)
    memoized = json.loads((run_dir / "results.json").read_text())
    assert 0 < len(memoized) < len(library)

    resumed = run_screening(
        built, library, config, runtime=RuntimeContext(run_dir)
    )
    assert resumed.hits == baseline.hits
    assert resumed.shards_cached == len(memoized)
    ranking = json.loads((run_dir / "screen_ranking.json").read_text())
    assert [h["compound_id"] for h in ranking["hits"]] == [
        h.compound_id for h in baseline.hits
    ]
    assert [h["best_score"] for h in ranking["hits"]] == [
        h.best_score for h in baseline.hits
    ]


def test_completed_run_is_fully_cached(built, library, tmp_path):
    config = ScreeningConfig(
        strategy="random", budget=30, seed=9, shard_size=2
    )
    first = run_screening(
        built, library, config, runtime=RuntimeContext(tmp_path)
    )
    again = run_screening(
        built, library, config, runtime=RuntimeContext(tmp_path)
    )
    assert again.shards_cached == again.n_shards
    assert again.hits == first.hits


def test_hits_jsonl_streams_per_ligand(built, library, tmp_path):
    config = ScreeningConfig(strategy="random", budget=30, seed=9)
    run_screening(
        built, library, config, runtime=RuntimeContext(tmp_path)
    )
    lines = [
        json.loads(line)
        for line in (tmp_path / "hits.jsonl").read_text().splitlines()
    ]
    assert len(lines) == len(library)
    assert {rec["library_index"] for rec in lines} == set(
        range(len(library))
    )


# -- policy mode ------------------------------------------------------------
@pytest.fixture(scope="module")
def policy_net(built, library):
    engines = [_engine_for(built, e.ligand) for e in library]
    input_dim = max(e.state_dim() for e in engines)
    return build_mlp(
        input_dim, [24], engines[0].n_actions, rng=5, dtype=np.float32
    )


def test_mlp_from_arrays_roundtrip(policy_net):
    rebuilt = mlp_from_arrays(network_arrays(policy_net))
    for a, b in zip(policy_net.params(), rebuilt.params()):
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype


def test_mlp_from_arrays_rejects_malformed():
    arrays = network_arrays(build_mlp(4, [3], 2, rng=0))
    with pytest.raises(CheckpointMismatchError):
        mlp_from_arrays({k: v for k, v in arrays.items() if k != "p1"})
    with pytest.raises(CheckpointMismatchError):
        mlp_from_arrays({})
    bad = dict(arrays)
    bad["p2"] = np.zeros((9, 2))  # fan-in does not chain from p0's 3
    with pytest.raises(CheckpointMismatchError):
        mlp_from_arrays(bad)


def test_load_policy_bare_npz(policy_net, tmp_path):
    path = tmp_path / "net.npz"
    save_network(policy_net, path)
    bundle = load_policy(path)
    net = bundle.build_network()
    for a, b in zip(policy_net.params(), net.params()):
        assert np.array_equal(a, b)


def test_load_policy_runtime_checkpoint_and_run_dir(
    policy_net, tmp_path
):
    run_dir = tmp_path / "train-run"
    (run_dir / "checkpoints").mkdir(parents=True)
    Checkpoint(
        state={"agent": {"q_net": network_arrays(policy_net)}},
        meta={"phase": "figure4"},
    ).write(run_dir / "checkpoints" / "figure4.npz")
    (run_dir / "manifest.json").write_text(
        json.dumps({"config": {"activation": "tanh"}})
    )
    # Direct .npz flavour.
    direct = load_policy(run_dir / "checkpoints" / "figure4.npz")
    assert direct.activation == "relu"
    # Run-dir flavour picks up the manifest activation.
    bundle = load_policy(run_dir)
    assert bundle.activation == "tanh"
    for a, b in zip(
        policy_net.params(), direct.build_network().params()
    ):
        assert np.array_equal(a, b)


def test_load_policy_missing_and_unusable(tmp_path):
    with pytest.raises(PolicyLoadError):
        load_policy(tmp_path / "nope.npz")
    with pytest.raises(PolicyLoadError):
        load_policy(tmp_path)  # no checkpoints anywhere
    bad = tmp_path / "bad.npz"
    np.savez(bad, unrelated=np.zeros(3))
    with pytest.raises(PolicyLoadError):
        load_policy(bad)


def _c51_checkpoint(net, path):
    Checkpoint(
        state={"agent": {"n_atoms": 51, "q_net": network_arrays(net)}},
        meta={"phase": "figure4"},
    ).write(path)
    return path


def test_load_policy_refuses_distributional_head(policy_net, tmp_path):
    path = _c51_checkpoint(policy_net, tmp_path / "figure4.npz")
    with pytest.raises(PolicyLoadError, match="distributional") as info:
        load_policy(path)
    assert "\n" not in str(info.value)


def test_policy_screen_deterministic_across_workers(
    built, library, policy_net, tmp_path
):
    path = tmp_path / "net.npz"
    save_network(policy_net, path)
    base = ScreeningConfig(
        strategy="policy",
        policy_path=str(path),
        shard_size=2,
        policy_max_steps=8,
    )
    r1 = run_screening(built, library, base)
    r2 = run_screening(
        built,
        library,
        ScreeningConfig(
            strategy="policy",
            policy_path=str(path),
            shard_size=2,
            policy_max_steps=8,
            workers=2,
        ),
    )
    assert r1.hits == r2.hits
    assert len(r1.hits) == len(library)


def test_greedy_rollout_batches_and_pads(built, library, policy_net):
    engines = [_engine_for(built, e.ligand) for e in library[:3]]
    results, stats = greedy_rollout(
        policy_net, engines, max_steps=6
    )
    assert len(results) == 3
    # One forward pass per step while any ligand is active.
    assert 1 <= stats.forward_passes <= 6
    # One grouped scoring call per step plus the initial-pose pass.
    assert stats.score_batch_calls == stats.forward_passes + 1
    assert all(r.evaluations >= 1 for r in results)
    # Determinism of the batched rollout.
    engines2 = [_engine_for(built, e.ligand) for e in library[:3]]
    results2, _ = greedy_rollout(policy_net, engines2, max_steps=6)
    assert results == results2


@pytest.mark.parametrize("mode", ["raw", "descriptor"])
def test_greedy_rollout_matches_sequential_loop(
    built, library, policy_net, mode
):
    """The batched hot path reproduces the per-ligand reference loop
    bit for bit (scores, steps, termination) in both state modes."""
    from repro.screening.policy import _greedy_rollout_loop

    engines = [_engine_for(built, e.ligand) for e in library[:4]]
    ref_engines = [_engine_for(built, e.ligand) for e in library[:4]]
    net = policy_net
    if mode == "descriptor":
        from repro.env.observation import make_codec

        dim = max(
            make_codec("descriptor", e).spec.dim for e in engines
        )
        net = build_mlp(dim, [16], engines[0].n_actions, rng=7)
    results, stats = greedy_rollout(
        net, engines, max_steps=8, observation_mode=mode
    )
    ref_results, ref_passes = _greedy_rollout_loop(
        net, ref_engines, max_steps=8, observation_mode=mode
    )
    assert results == ref_results
    assert stats.forward_passes == ref_passes


def test_greedy_rollout_matches_loop_field_scoring(
    built, library, policy_net
):
    """Field-scored engines share one FieldMaps and go through the
    fused group kernel; the rollout still matches the reference loop."""
    from repro.scoring.field import FieldMaps
    from repro.screening.policy import _greedy_rollout_loop

    maps = FieldMaps(built.receptor)
    engines = [
        _engine_for(
            built,
            e.ligand,
            scoring_method="field",
            scoring_kwargs={"cells": maps},
        )
        for e in library[:3]
    ]
    ref_maps = FieldMaps(built.receptor)
    ref_engines = [
        _engine_for(
            built,
            e.ligand,
            scoring_method="field",
            scoring_kwargs={"cells": ref_maps},
        )
        for e in library[:3]
    ]
    results, _ = greedy_rollout(policy_net, engines, max_steps=6)
    ref_results, _ = _greedy_rollout_loop(
        policy_net, ref_engines, max_steps=6
    )
    assert results == ref_results


def test_greedy_rollout_rejects_oversized_state(built, library):
    engines = [_engine_for(built, library[0].ligand)]
    tiny = build_mlp(8, [4], engines[0].n_actions, rng=0)
    with pytest.raises(PolicyLoadError, match="exceeds"):
        greedy_rollout(tiny, engines, max_steps=2)


def test_config_validation():
    with pytest.raises(ValueError, match="policy_path"):
        ScreeningConfig(strategy="policy")
    with pytest.raises(ValueError, match="unknown strategy"):
        ScreeningConfig(strategy="quantum")
    with pytest.raises(ValueError):
        ScreeningConfig(workers=0)
    with pytest.raises(ValueError):
        ScreeningConfig(shard_size=0)
    with pytest.raises(ValueError, match='"grid" was removed.*"field"'):
        ScreeningConfig(scoring_method="grid")
    a = ScreeningConfig(seed=1).fingerprint(10)
    b = ScreeningConfig(seed=2).fingerprint(10)
    assert a != b
    assert a == ScreeningConfig(seed=1).fingerprint(10)


# -- CLI integration --------------------------------------------------------
def test_cli_screen_and_inspect(tmp_path, capsys):
    from repro.cli import main

    run_dir = tmp_path / "screen-run"
    code = main(
        [
            "screen",
            "--ligands",
            "4",
            "--budget",
            "25",
            "--strategy",
            "random",
            "--shard-size",
            "2",
            "--top-k",
            "3",
            "--log-dir",
            str(run_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Virtual screening (random)" in out
    assert (run_dir / "screen_ranking.json").exists()
    assert (run_dir / "hits.jsonl").exists()

    code = main(["inspect", str(run_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Screening" in out
    assert "Top hits" in out
    assert "ligands/min" in out


def test_cli_screen_policy_without_checkpoint_errors(capsys):
    from repro.cli import main

    code = main(["screen", "--strategy", "policy", "--ligands", "2"])
    assert code == 2
    assert "policy_path" in capsys.readouterr().err


def test_cli_screen_policy_load_error_exits_2(
    policy_net, tmp_path, capsys
):
    from repro.cli import main

    ckpt = _c51_checkpoint(policy_net, tmp_path / "figure4.npz")
    run_dir = tmp_path / "run"
    argv = ["screen", "--strategy", "policy", "--ligands", "2"]
    code = main([*argv, "--policy", str(ckpt), "--log-dir", str(run_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro screen: ") and "distributional" in err
    assert "Traceback" not in err
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"


def test_cli_screen_policy_mode_end_to_end(tmp_path, capsys):
    """Policy screening through the CLI with a checkpoint sized for the
    CLI's own complex (the library is capped at the base ligand size,
    so every compound's state fits)."""
    from repro.chem.builders import build_complex
    from repro.cli import main
    from repro.config import ci_scale_config

    cfg = ci_scale_config(episodes=1, seed=0).complex
    built = build_complex(cfg)
    engine = _engine_for(built, built.ligand_crystal)
    net = build_mlp(
        engine.state_dim(), [16], engine.n_actions, rng=3,
        dtype=np.float32,
    )
    ckpt = tmp_path / "policy.npz"
    save_network(net, ckpt)
    code = main(
        [
            "screen",
            "--ligands",
            "3",
            "--strategy",
            "policy",
            "--policy",
            str(ckpt),
            "--policy-max-steps",
            "5",
        ]
    )
    assert code == 0
    assert "Virtual screening (policy)" in capsys.readouterr().out
