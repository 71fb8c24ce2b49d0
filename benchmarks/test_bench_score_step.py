"""Bench: per-step pose scoring -- exact vs cutoff vs incremental vs field.

The environment step is dominated by one ``scorer.score(coords)`` call;
this bench measures that call at full 2BSM scale (3,264-atom receptor,
45-atom ligand) over a seeded action-shaped trajectory (Table 1 moves:
1 A shifts and 0.5 degree rotations) and writes a
``BENCH_score_step.json`` artifact for the CI score-bench job.

Alongside throughput it records the accuracy figures the scoring
policy (docs/PERFORMANCE.md, "Scoring kernels") promises:

- the incremental scorer and the "cutoff" method (the same scorer at
  skin 0) track ``tests/cutoff_reference.py``, an independently
  written cutoff scorer, at the same cutoff to ~1e-15 relative (bound:
  ``DRIFT_REL_BOUND``) -- same pair set, same formulas, only
  floating-point association differs;
- cutoff truncation vs the exact scorer is the *cutoff's* accuracy
  knob, bounded per regime on the per-step score *change* (what the RL
  reward derives from): at most ``TRUNCATION_STEP_BOUND`` kcal/mol per
  step while scores are in the calm docking regime (|score| < 1e4),
  and at most ``TRUNCATION_CLASH_REL_BOUND`` *relative* drift on clash
  steps, where scores reach the paper's ~1e15-1e21 magnitudes and both
  scorers are dominated by the same clamped LJ/H-bond pairs;
- the hybrid field scorer's interpolation drift vs exact, per the same
  per-regime split, against its own documented budget
  (``FIELD_CALM_STEP_BOUND`` / ``FIELD_CLASH_REL_BOUND``), plus the
  additional calm-regime impact of storing the maps in float32
  (the ``dtype`` option).

The trajectory above starts at the crystal pose; training starts at
Figure 3's pose A, ~14 A off the pocket mouth, where about two thirds
of the ligand's atoms sit outside the fine field box.  The ``pose_a_*``
rows measure that regime on seeded walks of uniform random Table 1
actions from ``ligand_initial`` (what epsilon ~ 1 executes, escape
rule included): exact / incremental / field poses per second, and the
field scorer's calm drift and reward-sign agreement against exact over
``POSE_A_SEEDS`` x ``POSE_A_PAIRS`` consecutive pose pairs -- the
numbers the outer field level is accountable for.

``rebuild_us_crystal`` / ``rebuild_us_pose_a`` are the median cost of
one Verlet-list build (neighbour query + per-pair gather) in the two
regimes -- what a walk step pays when it leaves the skin.  Jumped poses
(``score_batch``, the screening search) skip the list and pay a
cutoff-radius query plus the gather of their within-cutoff pairs.

The speedup floors (incremental >= 5x, field >= 29x, field >= 10x at
pose A) are anchored on ``tests/frozen_eq1.py`` -- the exact scorer as
it was when those floors were set -- not on the live ``ExactScorer``,
so making the oracle faster cannot fail (or loosen) a guard on a scorer
that did not change.  The live exact scorer has its own floor against
the same anchor (``EXACT_SPEEDUP_BOUND``).  All are ratios of
measurements on the same machine, so they are robust to absolute runner
speed.  The field floor is the median over ``FIELD_RATIO_PAIRS``
interleaved field / frozen passes: one best-of-2 pass per scorer let a
burst of load on a shared runner land on one side only (the same code
read 25.8x and 29.3x in two runs).

``field_build_s`` / ``field_build_cpu_s`` / ``field_build_threads``
record the one-time map build against an empty temp map cache: wall
time, CPU time of every build thread, and the thread count (one per
core the process may use).  ``field_load_s`` is what a later process
pays instead: a second scorer's load of the stored maps from that cache
plus the assembly of its combined stack (a second build where the
cache is off, see ``repro.scoring.fieldbuild``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import DQNDockingConfig
from repro.constants import DEFAULT_CUTOFF
from repro.metadock.engine import MetadockEngine
from repro.runtime.threads import blas_build
from repro.scoring.field import (
    FIELD_CALM_STEP_BOUND,
    FIELD_CLASH_REL_BOUND,
    FieldScorer,
)
from repro.scoring.fieldbuild import _pool_size
from repro.scoring.incremental import (
    DEFAULT_SKIN,
    DRIFT_REL_BOUND,
    IncrementalScorer,
)
from repro.scoring.scorers import ExactScorer, make_scorer
from tests.cutoff_reference import CutoffReference
from tests.frozen_eq1 import FrozenExactScorer

#: Artifact path (repo root under plain pytest; override via env).
ARTIFACT = Path(
    os.environ.get("BENCH_SCORE_STEP_JSON", "BENCH_score_step.json")
)

N_POSES = 240
PASSES = 2
#: Pose-batch size for the batched scoring rows (the screening driver's
#: shard-scale batch).
BATCH_K = 64
#: Required batched-field throughput over the single-pose field path at
#: ``BATCH_K`` (ISSUE 10 acceptance; measured well above).
FIELD_BATCH_SPEEDUP_BOUND = 3.0
#: Interleaved field / frozen-exact pass pairs behind the
#: ``FIELD_SPEEDUP_BOUND`` ratio (median of the per-pair ratios).
FIELD_RATIO_PAIRS = 7
#: Required field throughput over the frozen exact kernel on the
#: crystal-pose walk.  The guard used to read "field >= 5x
#: incremental"; incremental then ran 5.6-5.8x exact, so that floor was
#: 28.2-28.8x exact.  It is anchored on the exact scorer of that time
#: (which no later change moves) and rounded up, so neither a faster
#: incremental scorer nor a faster oracle can loosen it (measured
#: 31-33x).
FIELD_SPEEDUP_BOUND = 29.0
#: Required incremental throughput over the frozen exact kernel.
INCREMENTAL_SPEEDUP_BOUND = 5.0
#: Required live-exact throughput over the frozen kernel, both walks
#: (measured 1.9-2.4x on the 2-core baseline box, where the frozen
#: kernel runs 3.8-4.5 ms a pose; the training loop sees more, see
#: docs/PERFORMANCE.md "Scoring kernels").
EXACT_SPEEDUP_BOUND = 1.6
#: Documented per-step score-change drift of cutoff truncation vs exact
#: at the default cutoff on the 2BSM-scale synthetic complex, calm
#: regime (measured ~57 kcal/mol; docs/PERFORMANCE.md, "Scoring
#: kernels").
TRUNCATION_STEP_BOUND = 100.0
#: Calm-regime threshold: |score| below this is "docking", above is
#: "clash" (clamped-overlap scores reach ~1e15 on this trajectory).
CALM_SCORE = 1e4
#: Documented relative per-step drift bound on clash steps (measured
#: ~9e-4).
TRUNCATION_CLASH_REL_BOUND = 1e-2
#: Pose-A walks: seeds x consecutive pose pairs per seed.
POSE_A_SEEDS = (3, 107)
POSE_A_PAIRS = 1000
#: Required field throughput over the frozen exact kernel at pose A, and
#: the reward-sign agreement floor there (ISSUE 13 acceptance).
POSE_A_FIELD_SPEEDUP_BOUND = 10.0
POSE_A_SIGN_AGREEMENT_BOUND = 0.95


def _trajectory(built, n_poses: int, seed: int = 11) -> np.ndarray:
    """Action-shaped pose sequence: 1 A shifts / 0.5 deg rotations."""
    rng = np.random.default_rng(seed)
    coords = built.ligand_crystal.coords.copy()
    out = np.empty((n_poses,) + coords.shape)
    for t in range(n_poses):
        if rng.random() < 0.5:
            step = rng.normal(size=3)
            coords = coords + step / np.linalg.norm(step)  # 1 A shift
        else:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            ang = np.radians(0.5)
            k = axis
            c, s = np.cos(ang), np.sin(ang)
            centroid = coords.mean(axis=0)
            rel = coords - centroid
            coords = (
                centroid
                + rel * c
                + np.cross(k, rel) * s
                + np.outer(rel @ k, k) * (1 - c)
            )
        out[t] = coords
    return out


def _pose_a_walk(built, n_pairs: int, seed: int):
    """Uniform random Table 1 actions from pose A, as the env runs them.

    Returns ``(poses, keep)``: the visited ligand coordinates and, per
    consecutive pair, whether it is a real step (False for the pair
    straddling an escape reset).
    """
    engine = MetadockEngine(built)
    # The env's escape rule (config default: 4/3 of the initial distance).
    escape = (
        DQNDockingConfig.escape_factor * engine.initial_com_distance()
    )
    rng = np.random.default_rng(seed)
    engine.reset(observe=False)
    poses = [engine.ligand_coords().copy()]
    keep = []
    for step in range(1, n_pairs + 1):
        engine.apply_action(int(rng.integers(engine.n_actions)))
        poses.append(engine.ligand_coords().copy())
        keep.append(True)
        if engine.com_distance() > escape and step < n_pairs:
            engine.reset(observe=False)
            poses.append(engine.ligand_coords().copy())
            keep.append(False)
    return np.stack(poses), np.array(keep)


def _measure(scorer, poses: np.ndarray) -> tuple[float, np.ndarray]:
    """(steps/second, scores) -- best of PASSES timed passes."""
    scores = np.empty(len(poses))
    for p in poses[:20]:  # warm-up (cell list, Verlet tables, caches)
        scorer.score(p)
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for i, p in enumerate(poses):
            scores[i] = scorer.score(p)
        best = min(best, time.perf_counter() - t0)
    return len(poses) / max(best, 1e-9), scores


def _interleaved_ratio(fast, slow, poses: np.ndarray) -> list[float]:
    """Per-pair throughput ratios ``fast / slow`` over ``poses``.

    The two scorers' passes alternate, so a burst of load on a shared
    runner lands on both sides of a pair instead of on one scorer's
    whole measurement; the caller takes the median.
    """
    for p in poses[:20]:  # warm-up
        fast.score(p)
        slow.score(p)
    ratios = []
    for _ in range(FIELD_RATIO_PAIRS):
        elapsed = []
        for scorer in (fast, slow):
            t0 = time.perf_counter()
            for p in poses:
                scorer.score(p)
            elapsed.append(time.perf_counter() - t0)
        ratios.append(elapsed[1] / max(elapsed[0], 1e-9))
    return ratios


def _rebuild_us(scorer: IncrementalScorer, poses: np.ndarray) -> float:
    """Median Verlet-list build cost in microseconds over ``poses``.

    One forced build per pose (neighbour query + per-pair gather) --
    what a walk step costs when it leaves the skin, before it scores.
    """
    times = np.empty(len(poses))
    for i, p in enumerate(poses):
        t0 = time.perf_counter()
        scorer._rebuild(p)
        times[i] = time.perf_counter() - t0
    return float(np.median(times)) * 1e6


def _measure_batch(
    scorer, poses: np.ndarray, k: int = BATCH_K
) -> tuple[float, np.ndarray]:
    """(poses/second, scores) scoring the trajectory in k-pose batches."""
    scores = np.empty(len(poses))
    scorer.score_batch(poses[:k])  # warm-up (field maps, lazy tables)
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for s in range(0, len(poses), k):
            scores[s : s + k] = scorer.score_batch(poses[s : s + k])
        best = min(best, time.perf_counter() - t0)
    return len(poses) / max(best, 1e-9), scores


def test_bench_score_step(paper_complex):
    built = paper_complex
    rec, lig = built.receptor, built.ligand_initial
    poses = _trajectory(built, N_POSES)

    exact = ExactScorer(rec, lig)
    frozen = FrozenExactScorer(rec, lig)
    cutoff = make_scorer("cutoff", rec, lig, cutoff=DEFAULT_CUTOFF)
    inc = IncrementalScorer(
        rec, lig, cutoff=DEFAULT_CUTOFF, skin=DEFAULT_SKIN
    )

    fld32 = FieldScorer(rec, lig, dtype="float32")
    with tempfile.TemporaryDirectory() as cache:
        # The build against an empty map cache, then a second scorer's
        # load of what it stored (what every later process pays).
        xdg = os.environ.get("XDG_CACHE_HOME")
        os.environ["XDG_CACHE_HOME"] = cache
        try:
            fld = FieldScorer(rec, lig)
            t0, c0 = time.perf_counter(), time.process_time()
            field_bytes = fld.maps.nbytes()  # first access builds both levels
            field_build_s = time.perf_counter() - t0
            # CPU seconds of every build thread (the wall time above is
            # shared out over _pool_size threads, one per core the
            # process may use).
            field_build_cpu_s = time.process_time() - c0
            assert fld.maps.build_count == 1
            warm = FieldScorer(rec, lig)
            t0 = time.perf_counter()
            warm.maps.flat_stack()
            field_load_s = time.perf_counter() - t0
            # A load, or a build where the cache is off (no BLAS
            # kernel set to key on).
            cached = blas_build() is not None
            assert warm.maps.load_count == cached
            assert warm.maps.build_count == (not cached)
            assert np.array_equal(warm.maps.flat_stack(), fld.maps.flat_stack())
        finally:
            if xdg is None:
                os.environ.pop("XDG_CACHE_HOME")
            else:
                os.environ["XDG_CACHE_HOME"] = xdg
    field_build_threads = _pool_size(fld.maps.n_nodes)

    rate_exact, s_exact = _measure(exact, poses)
    rate_frozen, s_frozen = _measure(frozen, poses)
    assert np.array_equal(s_exact, s_frozen)
    rate_cutoff, s_cutoff = _measure(cutoff, poses)
    inc.rebuild_count = 0
    rate_inc, s_inc = _measure(inc, poses)
    rate_field, s_field = _measure(fld, poses)
    field_ratios = _interleaved_ratio(fld, frozen, poses)
    field_vs_frozen = float(np.median(field_ratios))
    nf = []
    for p in poses:
        fld.score(p)
        nf.append(fld.near_fraction)
    s_field32 = np.array([fld32.score(p) for p in poses])

    # Batched rows: the same trajectory scored in BATCH_K batches
    # through score_batch (field: the fused pose-major kernel; cutoff
    # and incremental: a per-pose loop that skips the Verlet list and
    # queries each pose at the cutoff, ~1x of the list on this walk --
    # both unasserted).  Every batch path is
    # bitwise-equal to the single-pose scores above.
    rate_field_batch, sb_field = _measure_batch(fld, poses)
    rate_cutoff_batch, sb_cutoff = _measure_batch(cutoff, poses)
    inc_batch = IncrementalScorer(
        rec, lig, cutoff=DEFAULT_CUTOFF, skin=DEFAULT_SKIN
    )
    rate_inc_batch, sb_inc = _measure_batch(inc_batch, poses)
    assert np.array_equal(sb_field, s_field)
    assert np.array_equal(sb_cutoff, s_cutoff)
    assert np.array_equal(sb_inc, s_inc)
    # rebuild rate over one pass (the count accumulated PASSES+warmup
    # passes over the same trajectory, so normalize by total calls).
    total_inc_calls = PASSES * N_POSES + 20
    rebuild_rate = inc.rebuild_count / total_inc_calls

    # Accuracy, part 1: incremental and cutoff vs the independently
    # written reference at the same cutoff.
    reference = CutoffReference(rec, lig, cutoff=DEFAULT_CUTOFF)
    s_ref = np.array([reference.score(p) for p in poses])

    def max_rel(scores):
        rel = np.abs(scores - s_ref) / np.maximum(1.0, np.abs(s_ref))
        return float(rel.max())

    max_rel_inc_vs_cutoff = max_rel(s_inc)
    max_rel_cutoff_vs_reference = max_rel(s_cutoff)

    # Accuracy, part 2: truncation vs exact on per-step score changes
    # (the RL-relevant quantity), split by regime.
    d_inc = np.diff(s_inc)
    d_exact = np.diff(s_exact)
    calm = (np.abs(s_exact[:-1]) < CALM_SCORE) & (
        np.abs(s_exact[1:]) < CALM_SCORE
    )
    drift = np.abs(d_inc - d_exact)
    calm_step_drift = float(drift[calm].max()) if calm.any() else 0.0
    clash_rel_drift = (
        float((drift / np.maximum(1.0, np.abs(d_exact)))[~calm].max())
        if (~calm).any()
        else 0.0
    )
    sign_agreement = float(
        (np.sign(d_inc) == np.sign(d_exact)).mean()
    )

    # Accuracy, part 3: the field scorer's interpolation drift vs
    # exact, same per-regime split on per-step score changes, plus the
    # extra calm-regime drift from float32 map storage.
    d_field = np.diff(s_field)
    field_drift = np.abs(d_field - d_exact)
    field_calm_drift = (
        float(field_drift[calm].max()) if calm.any() else 0.0
    )
    field_clash_rel = (
        float(
            (field_drift / np.maximum(1.0, np.abs(d_exact)))[~calm].max()
        )
        if (~calm).any()
        else 0.0
    )
    d_field32 = np.diff(s_field32)
    f32_drift = np.abs(d_field32 - d_exact)
    field32_calm_drift = (
        float(f32_drift[calm].max()) if calm.any() else 0.0
    )
    field_sign_agreement = float(
        (np.sign(d_field) == np.sign(d_exact)).mean()
    )

    # Pose A: where every training episode starts.  Throughput over
    # the first walk's leading N_POSES poses; accuracy over every walk.
    walks = [_pose_a_walk(built, POSE_A_PAIRS, s) for s in POSE_A_SEEDS]
    a_poses = walks[0][0][:N_POSES]
    rate_a_exact, sa_live = _measure(exact, a_poses)
    rate_a_frozen, sa_frozen = _measure(frozen, a_poses)
    assert np.array_equal(sa_live, sa_frozen)
    rate_a_inc, _ = _measure(inc, a_poses)
    rate_a_field, _ = _measure(fld, a_poses)
    # List-build cost in both regimes (taken last on each scorer: the
    # forced builds inflate rebuild_count).
    rebuild_us_crystal = _rebuild_us(inc_batch, poses)
    rebuild_us_pose_a = _rebuild_us(inc_batch, a_poses)
    a_calm_drift, a_agreement, a_outer, a_near = [], [], [], []
    for w_poses, keep in walks:
        sa_exact = np.array([exact.score(p) for p in w_poses])
        sa_field = np.empty(len(w_poses))
        for i, p in enumerate(w_poses):
            sa_field[i] = fld.score(p)
            a_outer.append(fld.outer_fraction)
            a_near.append(fld.near_fraction)
        da_exact = np.diff(sa_exact)[keep]
        da_field = np.diff(sa_field)[keep]
        a_calm = (
            (np.abs(sa_exact[:-1]) < CALM_SCORE)
            & (np.abs(sa_exact[1:]) < CALM_SCORE)
        )[keep]
        a_calm_drift.append(
            float(np.abs(da_field - da_exact)[a_calm].max())
        )
        a_agreement.append(
            float((np.sign(da_field) == np.sign(da_exact)).mean())
        )

    payload = {
        "receptor_atoms": rec.n_atoms,
        "ligand_atoms": lig.n_atoms,
        "n_poses": N_POSES,
        "cutoff": DEFAULT_CUTOFF,
        "skin": DEFAULT_SKIN,
        "exact_steps_per_second": round(rate_exact, 2),
        "frozen_exact_steps_per_second": round(rate_frozen, 2),
        "speedup_exact_vs_frozen": round(rate_exact / rate_frozen, 3),
        "exact_us_crystal": round(1e6 / rate_exact, 1),
        "exact_us_pose_a": round(1e6 / rate_a_exact, 1),
        "speedup_incremental_vs_frozen": round(rate_inc / rate_frozen, 3),
        "speedup_field_vs_frozen": round(field_vs_frozen, 3),
        "speedup_field_vs_frozen_pairs": [
            round(r, 3) for r in field_ratios
        ],
        "pose_a_speedup_field_vs_frozen": round(
            rate_a_field / rate_a_frozen, 3
        ),
        "cutoff_steps_per_second": round(rate_cutoff, 2),
        "incremental_steps_per_second": round(rate_inc, 2),
        "speedup_incremental_vs_exact": round(rate_inc / rate_exact, 3),
        "speedup_incremental_vs_cutoff": round(rate_inc / rate_cutoff, 3),
        "rebuild_count": inc.rebuild_count,
        "rebuild_rate": round(rebuild_rate, 4),
        "rebuild_us_crystal": round(rebuild_us_crystal, 1),
        "rebuild_us_pose_a": round(rebuild_us_pose_a, 1),
        "max_rel_drift_incremental_vs_cutoff": max_rel_inc_vs_cutoff,
        "max_rel_drift_cutoff_vs_reference": max_rel_cutoff_vs_reference,
        "calm_steps": int(calm.sum()),
        "calm_step_delta_drift_vs_exact": round(calm_step_drift, 3),
        "clash_rel_delta_drift_vs_exact": clash_rel_drift,
        "reward_sign_agreement_vs_exact": round(sign_agreement, 4),
        "field_steps_per_second": round(rate_field, 2),
        "speedup_field_vs_incremental": round(rate_field / rate_inc, 3),
        "speedup_field_vs_exact": round(rate_field / rate_exact, 3),
        "field_spacing": fld.spacing,
        "field_clash_radius": fld.clash_radius,
        "field_map_bytes": int(field_bytes),
        "field_near_fraction_mean": round(float(np.mean(nf)), 4),
        "field_calm_step_drift_vs_exact": round(field_calm_drift, 3),
        "field_clash_rel_drift_vs_exact": field_clash_rel,
        "field_reward_sign_agreement_vs_exact": round(
            field_sign_agreement, 4
        ),
        "field_float32_calm_step_drift_vs_exact": round(
            field32_calm_drift, 3
        ),
        "batch_k": BATCH_K,
        "field_batch_poses_per_second": round(rate_field_batch, 2),
        "speedup_field_batch_vs_single": round(
            rate_field_batch / rate_field, 3
        ),
        "cutoff_batch_poses_per_second": round(rate_cutoff_batch, 2),
        "speedup_cutoff_batch_vs_single": round(
            rate_cutoff_batch / rate_cutoff, 3
        ),
        "incremental_batch_poses_per_second": round(rate_inc_batch, 2),
        "speedup_incremental_batch_vs_single": round(
            rate_inc_batch / rate_inc, 3
        ),
        "batch_bitwise_equal": True,
        "field_build_s": round(field_build_s, 2),
        "field_build_cpu_s": round(field_build_cpu_s, 2),
        "field_build_threads": field_build_threads,
        "field_load_s": round(field_load_s, 3),
        "pose_a_seeds": list(POSE_A_SEEDS),
        "pose_a_pairs_per_seed": POSE_A_PAIRS,
        "pose_a_exact_poses_per_second": round(rate_a_exact, 2),
        "pose_a_incremental_poses_per_second": round(rate_a_inc, 2),
        "pose_a_field_poses_per_second": round(rate_a_field, 2),
        "pose_a_speedup_field_vs_exact": round(
            rate_a_field / rate_a_exact, 3
        ),
        "pose_a_field_outer_fraction_mean": round(
            float(np.mean(a_outer)), 4
        ),
        "pose_a_field_near_fraction_mean": round(
            float(np.mean(a_near)), 4
        ),
        "pose_a_field_calm_step_drift_vs_exact": round(
            max(a_calm_drift), 3
        ),
        "pose_a_field_reward_sign_agreement_vs_exact": [
            round(a, 4) for a in a_agreement
        ],
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nscore-step throughput: {payload}")

    # The oracle itself: bit-equal to the frozen kernel (asserted
    # above) and faster than it on both walks.
    assert rate_exact >= EXACT_SPEEDUP_BOUND * rate_frozen, payload
    assert rate_a_exact >= EXACT_SPEEDUP_BOUND * rate_a_frozen, payload
    # Acceptance criteria (see ISSUE/docs): 5x the (frozen) exact
    # scorer at default cutoff, drift within the documented policy
    # bounds.
    assert rate_inc >= INCREMENTAL_SPEEDUP_BOUND * rate_frozen, payload
    assert max_rel_inc_vs_cutoff <= DRIFT_REL_BOUND, payload
    assert max_rel_cutoff_vs_reference <= DRIFT_REL_BOUND, payload
    assert calm_step_drift <= TRUNCATION_STEP_BOUND, payload
    assert clash_rel_drift <= TRUNCATION_CLASH_REL_BOUND, payload
    # The Verlet list must actually amortize: far fewer rebuilds than
    # steps (skin/2 displacement policy, see docs/PERFORMANCE.md).
    assert rebuild_rate < 0.5, payload
    # Field scorer: >= 29x the frozen exact kernel at default maps (no
    # weaker than the ">= 5x incremental" it replaces, see
    # FIELD_SPEEDUP_BOUND) in the median interleaved pair, with drift
    # inside its documented two-regime budget.
    assert field_vs_frozen >= FIELD_SPEEDUP_BOUND, payload
    assert field_calm_drift <= FIELD_CALM_STEP_BOUND, payload
    assert field_clash_rel <= FIELD_CLASH_REL_BOUND, payload
    # Pose-major batching: the fused field kernel must amortize per-call
    # overhead into >= 3x single-pose throughput at k=64 (ISSUE 10).
    assert (
        rate_field_batch >= FIELD_BATCH_SPEEDUP_BOUND * rate_field
    ), payload
    # Pose A (the start of every training episode): the field scorer
    # must stay O(ligand atoms) there too, inside the same calm budget,
    # with rewards that agree with the Eq. 1 oracle.
    assert (
        rate_a_field >= POSE_A_FIELD_SPEEDUP_BOUND * rate_a_frozen
    ), payload
    assert max(a_calm_drift) <= FIELD_CALM_STEP_BOUND, payload
    assert min(a_agreement) >= POSE_A_SIGN_AGREEMENT_BOUND, payload
