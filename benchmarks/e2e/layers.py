"""Metric tables and the span-tree -> per-layer-metric reduction.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of the
metric names, units and directions; ``BENCHMARK.json`` repeats them and
a self-test keeps the two in step.  A per-layer metric that does not
apply to a workload (ring gauges outside ``train_actors``, batch
scoring outside ``screen_search``, ...) reads 0.
"""

from __future__ import annotations

import numpy as np

from measure import latency_summary
from spans import SpanRecorder, layer_of

#: name -> (unit, better, regression bound as a share of the median).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "steps_per_s": ("1/s", "higher", 0.25),
    "ligands_per_min": ("1/min", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: name -> (unit, better).  Order is the README's per-layer table.
PER_LAYER = {
    "chem.build_complex_s": ("s", "lower"),
    "chem.generate_library_s": ("s", "lower"),
    "scoring.setup_s": ("s", "lower"),
    "scoring.map_bytes": ("bytes", "lower"),
    "scoring.score_calls": ("count", "lower"),
    "scoring.score_us_p50": ("us", "lower"),
    "scoring.score_us_tail": ("us", "lower"),
    "scoring.score_tail_pct": ("pct", "higher"),
    "scoring.busy_frac": ("frac", "lower"),
    "scoring.inbox_atom_frac": ("frac", "higher"),
    "scoring.verlet_reuse_frac": ("frac", "higher"),
    "scoring.batch_calls": ("count", "lower"),
    "scoring.batch_poses_per_call": ("poses/call", "higher"),
    "scoring.batch_us_per_pose": ("us", "lower"),
    "metadock.apply_action_us_p50": ("us", "lower"),
    "metadock.search_self_frac": ("frac", "lower"),
    "metadock.evals_per_ligand": ("count", "lower"),
    "env.step_self_us_p50": ("us", "lower"),
    "env.encode_us_p50": ("us", "lower"),
    "env.self_frac": ("frac", "lower"),
    "env.ring_full_waits": ("count", "lower"),
    "env.ring_depth_mean": ("count", "lower"),
    "nn.forward_us_p50": ("us", "lower"),
    "nn.fwd_bwd_ms_p50": ("ms", "lower"),
    "nn.optimizer_ms_p50": ("ms", "lower"),
    "nn.busy_frac": ("frac", "lower"),
    "rl.act_us_p50": ("us", "lower"),
    "rl.remember_us_p50": ("us", "lower"),
    "rl.replay_sample_us_p50": ("us", "lower"),
    "rl.learn_ms_p50": ("ms", "lower"),
    "rl.learn_ms_tail": ("ms", "lower"),
    "rl.learn_tail_pct": ("pct", "higher"),
    "rl.learn_busy_frac": ("frac", "lower"),
    "rl.loop_self_frac": ("frac", "lower"),
    "rl.replay_bytes": ("bytes", "lower"),
    "rl.learner_idle_frac": ("frac", "lower"),
    "rl.weight_staleness_mean": ("count", "lower"),
    "rl.actor_steps_per_s": ("1/s", "higher"),
    "screening.driver_self_frac": ("frac", "lower"),
    "screening.shard_s_p50": ("s", "lower"),
    "bench.self_frac": ("frac", "lower"),
    "bench.trace_overhead_frac": ("frac", "lower"),
    "bench.parent_cpu_frac": ("frac", "higher"),
}

#: The self-time shares that partition the traced run's wall time.
FRACTIONS = (
    "scoring.busy_frac",
    "metadock.search_self_frac",
    "env.self_frac",
    "nn.busy_frac",
    "rl.learn_busy_frac",
    "rl.loop_self_frac",
    "screening.driver_self_frac",
    "bench.self_frac",
)

#: rl spans that make up one gradient step (the rest of rl is the loop).
_LEARN_SPANS = ("rl.learn", "rl.replay_sample", "rl.sync_target")


def _fraction_of(span_name: str) -> str:
    layer = layer_of(span_name)
    if layer == "rl":
        return (
            "rl.learn_busy_frac"
            if span_name in _LEARN_SPANS
            else "rl.loop_self_frac"
        )
    return {
        "scoring": "scoring.busy_frac",
        "metadock": "metadock.search_self_frac",
        "env": "env.self_frac",
        "nn": "nn.busy_frac",
        "screening": "screening.driver_self_frac",
        "bench": "bench.self_frac",
    }[layer]


def self_fractions(rec: SpanRecorder) -> dict[str, float]:
    """Share of the root span's wall time per :data:`FRACTIONS` entry."""
    wall = float(rec.durations_ns()[0]) * 1e-9
    out = dict.fromkeys(FRACTIONS, 0.0)
    for name, seconds in rec.self_seconds_by_name().items():
        out[_fraction_of(name)] += seconds / wall
    return out


def bounding_layer(fractions: dict[str, float]) -> str:
    """The program layer with the largest self-time share."""
    per_layer: dict[str, float] = {}
    for name, value in fractions.items():
        layer = layer_of(name)
        if layer != "bench":
            per_layer[layer] = per_layer.get(layer, 0.0) + value
    return max(per_layer, key=per_layer.get)


def layer_metrics(
    rec: SpanRecorder,
    facts: dict[str, float],
    traced_scorers: list,
    traced_rate: float,
    untraced_rate: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    dur = rec.durations_ns()
    self_ns = rec.self_ns()
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({k: v for k, v in facts.items() if k in PER_LAYER})
    m.update(self_fractions(rec))

    def p50(name, unit_ns, *, parent=None, self_time=False):
        idx = rec.select(name, parent)
        return latency_summary((self_ns if self_time else dur)[idx], unit_ns)

    built = rec.select("scoring.make_scorer")
    if built.size:  # scorers constructed inside the run (one per ligand)
        m["scoring.setup_s"] += float(dur[built].sum()) * 1e-9
    score = p50("scoring.score", 1e3)
    score_idx = rec.select("scoring.score")
    m["scoring.score_calls"] = float(score["n"])
    m["scoring.score_us_p50"] = score["p50"]
    m["scoring.score_us_tail"] = score["tail"]
    m["scoring.score_tail_pct"] = score["tail_pct"]
    inbox = [rec.values[i] for i in score_idx if i in rec.values]
    if inbox:
        m["scoring.inbox_atom_frac"] = float(np.mean(inbox))

    batch_idx = rec.select("scoring.score_batch")
    batch_poses = sum(rec.values.get(i, 0.0) for i in batch_idx)
    if batch_idx.size:
        m["scoring.batch_calls"] = float(batch_idx.size)
        m["scoring.batch_poses_per_call"] = batch_poses / batch_idx.size
        m["scoring.batch_us_per_pose"] = (
            float(dur[batch_idx].sum()) / 1e3 / max(batch_poses, 1.0)
        )
    rebuilds = [
        s.rebuild_count - base
        for s, base in traced_scorers
        if hasattr(s, "rebuild_count")
    ]
    scored = score["n"] + batch_poses
    if rebuilds and scored:
        m["scoring.verlet_reuse_frac"] = 1.0 - sum(rebuilds) / scored

    m["metadock.apply_action_us_p50"] = p50("metadock.apply_action", 1e3)["p50"]
    evals = sum(
        rec.values.get(i, 0.0) for i in rec.select("metadock.score_poses")
    )
    ligands = rec.select("metadock.screen_ligand").size
    if ligands:
        m["metadock.evals_per_ligand"] = evals / ligands

    m["env.step_self_us_p50"] = p50("env.step", 1e3, self_time=True)["p50"]
    m["env.encode_us_p50"] = p50("env.encode", 1e3)["p50"]
    depths = [
        rec.values[i]
        for i in rec.select("env.ring_drain")
        if rec.values.get(i, 0.0) > 0
    ]
    if depths:
        m["env.ring_depth_mean"] = float(np.mean(depths))

    m["nn.forward_us_p50"] = p50("nn.predict", 1e3, parent="rl.act")["p50"]
    learn_idx = rec.select("rl.learn")
    if learn_idx.size:
        fwd_bwd = rec.child_sum_ns(learn_idx, ("nn.forward", "nn.backward"))
        m["nn.fwd_bwd_ms_p50"] = latency_summary(fwd_bwd, 1e6)["p50"]
    m["nn.optimizer_ms_p50"] = p50("nn.optimizer", 1e6)["p50"]

    m["rl.act_us_p50"] = p50("rl.act", 1e3)["p50"]
    m["rl.remember_us_p50"] = p50("rl.remember", 1e3)["p50"]
    m["rl.replay_sample_us_p50"] = p50("rl.replay_sample", 1e3)["p50"]
    learn = p50("rl.learn", 1e6)
    m["rl.learn_ms_p50"] = learn["p50"]
    m["rl.learn_ms_tail"] = learn["tail"]
    m["rl.learn_tail_pct"] = learn["tail_pct"]

    m["screening.shard_s_p50"] = p50("screening.shard", 1e9)["p50"]

    m["bench.trace_overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return m
