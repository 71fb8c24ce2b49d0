"""``repro inspect``: render a run summary from emitted files alone.

Reads ``manifest.json`` / ``events.jsonl`` / ``metrics.csv`` out of a
run directory and renders the episode table, the Figure-4 series, the
span breakdown, and the metric snapshot -- no in-process state, so any
archived run directory is inspectable forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.telemetry.manifest import MANIFEST_NAME, RunManifest
from repro.telemetry.run import EVENTS_NAME, METRICS_NAME
from repro.telemetry.sinks import read_events, read_metrics_csv
from repro.utils.ascii_plot import ascii_line_plot, sparkline
from repro.utils.tables import render_table

PathLike = Union[str, Path]


@dataclass
class RunRecord:
    """Everything read back from one run directory."""

    path: Path
    manifest: RunManifest
    events: List[dict] = field(default_factory=list)
    metrics: List[dict] = field(default_factory=list)

    def events_of(self, kind: str) -> List[dict]:
        """All events of one type, in emit order."""
        return [e for e in self.events if e.get("event") == kind]


def load_run(run_dir: PathLike) -> RunRecord:
    """Read a run directory back into memory.

    The manifest is required; the event log and metrics snapshot are
    optional (a crashed run may not have a metrics.csv yet).
    """
    path = Path(run_dir)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{manifest_path} not found -- is {path} a telemetry run dir?"
        )
    record = RunRecord(path=path, manifest=RunManifest.load(manifest_path))
    events_path = path / EVENTS_NAME
    if events_path.exists():
        record.events = read_events(events_path)
    metrics_path = path / METRICS_NAME
    if metrics_path.exists():
        record.metrics = read_metrics_csv(metrics_path)
    return record


def _fmt(value, spec: str = ".3f") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:
            return "-"
        return format(value, spec)
    return str(value)


def _episode_section(record: RunRecord) -> str:
    episodes = record.events_of("episode_end")
    if not episodes:
        return "(no episode records)"
    rows = [
        (
            ep.get("episode"),
            ep.get("steps"),
            _fmt(ep.get("total_reward"), ".1f"),
            _fmt(ep.get("avg_max_q")),
            _fmt(ep.get("best_score"), ".2f"),
            _fmt(ep.get("epsilon")),
            _fmt(ep.get("mean_loss"), ".4f"),
            ep.get("termination") or "-",
        )
        for ep in episodes
    ]
    return render_table(
        ["ep", "steps", "reward", "avg max Q", "best score",
         "eps", "loss", "termination"],
        rows,
        title="Episodes",
        align=["r", "r", "r", "r", "r", "r", "r", "l"],
    )


def _figure4_section(record: RunRecord) -> str:
    episodes = record.events_of("episode_end")
    series = [
        float(ep["avg_max_q"])
        for ep in episodes
        if ep.get("learning_active") and ep.get("avg_max_q") is not None
    ]
    if not series:
        return "(no learning-active episodes -- no Figure 4 series)"
    lines = [
        f"Figure 4 series ({len(series)} learning-active episodes): "
        f"first {series[0]:.3f}  "
        f"peak {max(series):.3f}  last {series[-1]:.3f}",
        "Q curve: " + sparkline(series),
    ]
    if len(series) >= 3:
        lines.append(
            ascii_line_plot(
                series, title="avg max predicted Q per episode"
            )
        )
    return "\n".join(lines)


def _span_section(record: RunRecord) -> str:
    spans = [m for m in record.metrics if m.get("kind") == "span"]
    if not spans:
        # Fall back to the event log's span summary (crash before csv).
        summaries = record.events_of("span_summary")
        if not summaries:
            return "(no span records)"
        spans = [
            {
                "name": "span/" + s["path"],
                "count": s["count"],
                "value": s["total_seconds"],
                "mean": s["mean_seconds"],
            }
            for s in summaries[-1].get("spans", [])
        ]
    rows = []
    for s in sorted(spans, key=lambda s: str(s["name"])):
        path = str(s["name"])[len("span/"):]
        depth = path.count("/")
        label = "  " * depth + path.rsplit("/", 1)[-1]
        rows.append(
            (
                label,
                int(s["count"] or 0),
                _fmt(s["value"], ".4f"),
                _fmt(1e3 * s["mean"] if s["mean"] is not None else None,
                     ".4f"),
            )
        )
    return render_table(
        ["span", "calls", "total s", "mean ms"],
        rows,
        title="Span breakdown",
        align=["l", "r", "r", "r"],
    )


def _metrics_section(record: RunRecord) -> str:
    rows = [
        (
            m["name"],
            m["kind"],
            int(m["count"] or 0),
            _fmt(m.get("value"), "g"),
            _fmt(m.get("mean"), ".4g"),
            _fmt(m.get("min"), ".4g"),
            _fmt(m.get("max"), ".4g"),
            _fmt(m.get("p50"), ".4g"),
            _fmt(m.get("p99"), ".4g"),
        )
        for m in record.metrics
        if m.get("kind") in ("counter", "gauge", "histogram")
    ]
    if not rows:
        return "(no metrics snapshot)"
    return render_table(
        ["metric", "kind", "count", "value", "mean", "min", "max",
         "p50", "p99"],
        rows,
        title="Metrics",
        align=["l", "l", "r", "r", "r", "r", "r", "r", "r"],
    )


def _field_section(record: RunRecord) -> str:
    """Render field-scorer telemetry when a run used ``--scoring-method
    field``: total precomputed-map storage (both lattice levels), how
    many times the maps came off the on-disk map cache, and the
    fractions of ligand atoms that fell in the exact near-field regime
    and in the coarse outer level (see :mod:`repro.scoring.field`)."""
    by_name = {m.get("name"): m for m in record.metrics}
    size = by_name.get("scoring/field_bytes")
    loads = by_name.get("scoring/field_map_loads")
    fractions = [
        (label, by_name.get(name))
        for label, name in (
            ("near-field (exact-path)", "scoring/near_field_fraction"),
            ("outer-level (shell)", "scoring/outer_field_fraction"),
        )
    ]
    if size is None and all(h is None for _, h in fractions):
        return ""
    lines = ["Field scorer"]
    if size is not None and size.get("value") is not None:
        line = f"  precomputed maps: {size['value'] / (1024 * 1024):.1f} MiB"
        if loads is not None and loads.get("value") is not None:
            n = int(loads["value"])
            line += f" ({n} on-disk cache load{'' if n == 1 else 's'})"
        lines.append(line)
    for label, hist in fractions:
        if hist is not None:
            lines.append(
                f"  {label} atom fraction: "
                f"mean {_fmt(hist.get('mean'), '.3f')}  "
                f"max {_fmt(hist.get('max'), '.3f')} "
                f"over {int(hist.get('count') or 0)} score calls"
            )
    return "\n".join(lines)


def _checkpoint_section(record: RunRecord) -> str:
    """Render the per-phase checkpoint files, newest last.

    Reads only each checkpoint's metadata (``read_meta``) -- the array
    payloads stay on disk, so inspecting a multi-GB run dir is cheap.
    """
    from repro.runtime.checkpoint import (
        CheckpointReadError,
        checkpoint_info,
    )
    from repro.runtime.loop import CHECKPOINT_DIR_NAME

    ckpt_dir = record.path / CHECKPOINT_DIR_NAME
    if not ckpt_dir.is_dir():
        return ""
    paths = sorted(
        ckpt_dir.glob("*.npz"), key=lambda p: (p.stat().st_mtime, p.name)
    )
    if not paths:
        return ""
    rows = []
    for path in paths:
        try:
            info = checkpoint_info(path)
        except CheckpointReadError:
            rows.append((path.name, "-", "-", "-", "-", "unreadable"))
            continue
        meta = info["meta"]
        mode = meta.get("mode", "-")
        if mode == "episodes":
            progress = (
                f"{meta.get('next_episode', '?')}"
                f"/{meta.get('episodes_target', '?')} ep"
            )
        elif mode == "steps":
            progress = (
                f"{meta.get('next_step', '?')}"
                f"/{meta.get('steps_target', '?')} steps"
            )
        else:
            progress = "-"
        rows.append(
            (
                path.name,
                str(meta.get("phase", "-")),
                progress,
                "yes" if meta.get("complete") else "no",
                f"{info['n_arrays']}",
                f"{info['file_bytes'] / 1024:.1f} KiB",
            )
        )
    return render_table(
        ["file", "phase", "progress", "complete", "arrays", "size"],
        rows,
        title="Checkpoints",
        align=["l", "l", "r", "l", "r", "r"],
    )


#: Benchmark artifacts rendered by ``repro inspect`` when dropped into
#: the run directory (each is a flat JSON object of named numbers).
BENCH_ARTIFACTS = (
    "BENCH_train_step.json",
    "BENCH_score_step.json",
    "BENCH_screening.json",
    "BENCH_observation.json",
    "BENCH_actor_learner.json",
)


def _actor_learner_section(record: RunRecord) -> str:
    """Render per-actor telemetry of an actor/learner run.

    Built from the ``actor_learner/*`` metric snapshot the trainer
    records at the end of every segment: a per-actor row (transitions
    pushed, push throughput, ring depth at snapshot, backpressure
    waits) plus the learner-side gauges (idle fraction while starved
    for transitions, the broadcast weight version, and the
    weight-staleness histogram).  See docs/PARALLELISM.md,
    "Actor/learner architecture".
    """
    by_name = {m.get("name"): m for m in record.metrics}
    prefix = "actor_learner/"
    num_actors = by_name.get(prefix + "num-actors")
    if num_actors is None or not num_actors.get("value"):
        return ""
    n = int(num_actors["value"])
    lines = ["Actor/learner runtime"]
    rows = []
    for i in range(n):
        pushed = by_name.get(f"{prefix}transitions-actor{i}", {})
        rate = by_name.get(f"{prefix}transitions-per-second-actor{i}", {})
        depth = by_name.get(f"{prefix}ring-depth-actor{i}", {})
        waits = by_name.get(f"{prefix}ring-full-waits-actor{i}", {})
        rows.append(
            (
                i,
                _fmt(pushed.get("value"), "g"),
                _fmt(rate.get("value"), ".1f"),
                _fmt(depth.get("value"), "g"),
                _fmt(waits.get("value"), "g"),
            )
        )
    lines.append(
        render_table(
            ["actor", "transitions", "trans/s", "ring depth",
             "full waits"],
            rows,
            align=["r", "r", "r", "r", "r"],
        )
    )
    consumed = by_name.get(prefix + "consumed-transitions")
    idle = by_name.get(prefix + "learner-idle-fraction")
    version = by_name.get(prefix + "weight-version")
    detail = []
    if consumed is not None:
        detail.append(f"consumed {_fmt(consumed.get('value'), 'g')}")
    if version is not None:
        detail.append(f"weight version {_fmt(version.get('value'), 'g')}")
    if idle is not None:
        detail.append(
            f"learner idle fraction {_fmt(idle.get('value'), '.3f')}"
        )
    if detail:
        lines.append("  learner: " + "  ".join(detail))
    staleness = by_name.get(prefix + "weight-staleness-steps")
    if staleness is not None:
        lines.append(
            "  weight staleness (steps): "
            f"mean {_fmt(staleness.get('mean'), '.1f')}  "
            f"p50 {_fmt(staleness.get('p50'), '.1f')}  "
            f"p99 {_fmt(staleness.get('p99'), '.1f')}  "
            f"max {_fmt(staleness.get('max'), '.1f')}"
        )
    return "\n".join(lines)


def _screening_section(record: RunRecord) -> str:
    """Render shard progress and top hits of a screening run.

    Built from the event log plus the ``screen_ranking.json`` artifact
    the driver writes, so interrupted screens render their partial
    progress too.
    """
    starts = record.events_of("screen_start")
    shards = record.events_of("shard")
    ends = record.events_of("screen_end")
    ranking_path = record.path / "screen_ranking.json"
    if not (starts or shards or ends or ranking_path.exists()):
        return ""
    lines = ["Screening"]
    if starts:
        s = starts[-1]
        lines.append(
            f"  {s.get('ligands', '?')} ligands in "
            f"{s.get('shards', '?')} shards "
            f"({s.get('cached_shards', 0)} cached), "
            f"strategy={s.get('strategy', '?')}, "
            f"workers={s.get('workers', '?')}, "
            f"shard_size={s.get('shard_size', '?')}, "
            f"scoring={s.get('scoring_method', '?')}"
        )
    if shards:
        total = starts[-1].get("shards") if starts else None
        done = len(shards)
        fresh = sum(1 for s in shards if not s.get("cached"))
        last = shards[-1]
        progress = f"{done}/{total}" if total is not None else str(done)
        lines.append(
            f"  shards done: {progress} ({fresh} computed this run), "
            f"last throughput "
            f"{_fmt(last.get('ligands_per_min'), '.1f')} ligands/min"
        )
    if ends:
        e = ends[-1]
        lines.append(
            f"  completed: {e.get('ligands', '?')} ligands in "
            f"{_fmt(e.get('wall_seconds'), '.2f')}s "
            f"({_fmt(e.get('ligands_per_min'), '.1f')} ligands/min)"
        )
        if e.get("policy_forward_passes") or e.get("score_batch_calls"):
            lines.append(
                f"  policy batching: "
                f"{e.get('policy_forward_passes', 0)} forward passes, "
                f"{e.get('score_batch_calls', 0)} score-batch calls"
            )
    if ranking_path.exists():
        try:
            hits = json.loads(ranking_path.read_text()).get("hits", [])
        except (OSError, ValueError):
            hits = []
        if hits:
            rows = [
                (
                    h.get("rank"),
                    h.get("compound_id"),
                    h.get("n_atoms"),
                    _fmt(h.get("best_score"), ".2f"),
                )
                for h in hits[:10]
            ]
            lines.append(
                render_table(
                    ["rank", "compound", "atoms", "best score"],
                    rows,
                    title="Top hits",
                    align=["r", "l", "r", "r"],
                )
            )
    return "\n".join(lines)


def _bench_section(record: RunRecord) -> str:
    """Render any benchmark artifacts living next to the run files."""
    sections = []
    for name in BENCH_ARTIFACTS:
        path = record.path / name
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            sections.append(f"({name}: unreadable)")
            continue
        rows = [
            (key, _fmt(value, ",.6g") if isinstance(value, float)
             else f"{value:,}" if isinstance(value, int) else str(value))
            for key, value in payload.items()
        ]
        sections.append(
            render_table(
                ["measurement", "value"], rows, title=name,
                align=["l", "r"],
            )
        )
    return "\n\n".join(sections)


def render_summary(run_dir: PathLike) -> str:
    """The full ``repro inspect`` report for one run directory."""
    record = load_run(run_dir)
    m = record.manifest
    header = [
        f"# Run {m.run_id}",
        m.header(),
        f"command: {m.command}   python {m.python_version} on {m.platform}"
        f"   numpy {m.numpy_version}",
    ]
    if m.finished_at:
        header.append(
            f"finished: {m.finished_at}   "
            f"duration: {m.duration_seconds:.1f}s"
        )
    n_events = len(record.events)
    n_steps = len(record.events_of("step"))
    header.append(f"events: {n_events} total, {n_steps} step records")
    sections = [
        "\n".join(header),
        _episode_section(record),
        _figure4_section(record),
        _span_section(record),
        _metrics_section(record),
    ]
    field_tel = _field_section(record)
    if field_tel:
        sections.append(field_tel)
    actor_learner = _actor_learner_section(record)
    if actor_learner:
        sections.append(actor_learner)
    screening = _screening_section(record)
    if screening:
        sections.append(screening)
    checkpoints = _checkpoint_section(record)
    if checkpoints:
        sections.append(checkpoints)
    bench = _bench_section(record)
    if bench:
        sections.append(bench)
    return "\n\n".join(sections)
