"""One run, one directory: the orchestration layer of the telemetry stack.

:class:`TelemetryRun` ties the pieces together for a single run
directory::

    run-dir/
      manifest.json   # written at start, finalized at exit
      events.jsonl    # structured event log (JsonlEventSink)
      metrics.csv     # final registry + span snapshot (CsvMetricsSink)

Producers talk to the :class:`~repro.telemetry.metrics.MetricsRegistry`
and :class:`~repro.telemetry.spans.SpanTracer` it owns, or emit events
directly; :meth:`TelemetryRun.finalize` writes the snapshot and closes
everything.  ``repro inspect <run-dir>`` renders a summary from these
three files alone.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.telemetry.callbacks import StepInfo, TrainerCallback
from repro.telemetry.manifest import MANIFEST_NAME, RunManifest
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import CsvMetricsSink, JsonlEventSink, TelemetrySink
from repro.telemetry.spans import SpanTracer

PathLike = Union[str, Path]

#: Canonical event-log / metrics file names inside a run directory.
EVENTS_NAME = "events.jsonl"
METRICS_NAME = "metrics.csv"


class TelemetryRun:
    """Owns the run directory, manifest, registry, tracer, and sinks.

    Usable as a context manager: a clean exit finalizes with status
    ``completed``, an exception with ``failed`` (re-raised).

    Parameters
    ----------
    log_dir:
        Run directory; created if missing.
    command / seed / config:
        Manifest provenance fields (config may be a dataclass).
    step_interval:
        Emit only every k-th ``step`` event (1 = every step).  Episode
        and span records are unaffected, so coarse step logging still
        yields a complete episode table.
    sinks:
        Extra sinks that receive every event alongside the JSONL log.
    """

    def __init__(
        self,
        log_dir: PathLike,
        *,
        command: str = "run",
        seed: int | None = None,
        config: Any = None,
        run_id: str | None = None,
        parent_run_id: str | None = None,
        resume_step: int | None = None,
        extra: Optional[dict] = None,
        step_interval: int = 1,
        event_buffer: int = 64,
        sinks: Optional[List[TelemetrySink]] = None,
    ) -> None:
        if step_interval < 1:
            raise ValueError("step_interval must be >= 1")
        self.dir = Path(log_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.step_interval = int(step_interval)
        self.manifest = RunManifest.create(
            command,
            seed=seed,
            config=config,
            run_id=run_id,
            parent_run_id=parent_run_id,
            resume_step=resume_step,
            extra=extra,
        )
        self.manifest.write(self.dir / MANIFEST_NAME)
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()
        self._events = JsonlEventSink(
            self.dir / EVENTS_NAME, buffer_size=event_buffer
        )
        self._extra_sinks: List[TelemetrySink] = list(sinks or [])
        self._t0 = time.perf_counter()
        self._finalized = False
        self.emit(
            "run_start",
            run_id=self.manifest.run_id,
            command=command,
            seed=seed,
        )

    # -- event log ---------------------------------------------------------
    def emit(self, event: str, **payload: Any) -> None:
        """Append one event (``event`` type + wall offset + payload)."""
        if self._finalized:
            return
        record = {
            "event": event,
            "t": round(time.perf_counter() - self._t0, 6),
            **payload,
        }
        self._events.emit(record)
        for sink in self._extra_sinks:
            sink.emit(record)

    def callback(self) -> "TelemetryCallback":
        """A trainer callback bound to this run."""
        return TelemetryCallback(self)

    def flush(self) -> None:
        """Flush all sinks without closing them."""
        self._events.flush()
        for sink in self._extra_sinks:
            sink.flush()

    # -- lifecycle ---------------------------------------------------------
    def finalize(self, status: str = "completed") -> None:
        """Write span summary + metrics snapshot, close sinks, seal
        the manifest (idempotent)."""
        if self._finalized:
            return
        span_rows = self.tracer.as_rows()
        if span_rows:
            self.emit("span_summary", spans=span_rows)
        self.emit("run_end", status=status)
        self._finalized = True
        self._events.close()
        with CsvMetricsSink(self.dir / METRICS_NAME) as csv_sink:
            csv_sink.write_rows(self.registry.merge_span_rows(span_rows))
        for sink in self._extra_sinks:
            sink.close()
        self.manifest.finalize(status)
        self.manifest.write(self.dir / MANIFEST_NAME)

    def __enter__(self) -> "TelemetryRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finalize("failed" if exc_type is not None else "completed")


class TelemetryCallback(TrainerCallback):
    """Routes trainer hooks into a :class:`TelemetryRun`.

    Per-step data lands both in the event log (throttled by the run's
    ``step_interval``) and in the registry's counters/histograms, so
    quantiles survive even when step events are sampled.
    """

    def __init__(self, run: TelemetryRun) -> None:
        self.run = run
        self._agent: Any = None

    def on_train_start(self, trainer: Any = None) -> None:
        # Remember the agent (when the trainer hands itself over) so
        # episode ends can snapshot its replay footprint.
        self._agent = getattr(trainer, "agent", None)
        self.run.emit("train_start")

    def on_episode_start(self, episode: int) -> None:
        self.run.emit("episode_start", episode=episode)

    def on_step(self, info: StepInfo) -> None:
        reg = self.run.registry
        reg.inc("steps")
        reg.observe("reward", info.reward)
        reg.observe("max_q", info.max_q)
        reg.set("epsilon", info.epsilon)
        if info.score == info.score:  # skip NaN
            reg.observe("score", info.score)
        if info.loss == info.loss:
            reg.inc("learn_steps")
            reg.observe("loss", info.loss)
        if info.global_step % self.run.step_interval == 0:
            self.run.emit(
                "step",
                episode=info.episode,
                step=info.step,
                global_step=info.global_step,
                action=info.action,
                reward=info.reward,
                score=info.score,
                max_q=info.max_q,
                epsilon=info.epsilon,
                loss=info.loss,
                done=info.done,
            )

    def on_episode_end(self, stats: Any) -> None:
        import dataclasses

        payload = (
            dataclasses.asdict(stats)
            if dataclasses.is_dataclass(stats) and not isinstance(stats, type)
            else dict(vars(stats))
        )
        self.run.emit("episode_end", **payload)
        reg = self.run.registry
        reg.inc("episodes")
        reward = payload.get("total_reward")
        if reward is not None:
            reg.observe("episode_reward", float(reward))
        best = payload.get("best_score")
        if best is not None and best == best and best != float("-inf"):
            gauge = reg.gauge("best_score")
            if gauge.value != gauge.value or best > gauge.value:
                gauge.set(best)
        replay = getattr(self._agent, "replay", None)
        nbytes = getattr(replay, "nbytes", None)
        if callable(nbytes):
            reg.set("replay_bytes", float(nbytes()))
            reg.set("replay_size", float(len(replay)))
        # Keep the event log durable at episode granularity.
        self.run.flush()

    def on_train_end(self, history: Any) -> None:
        self.run.emit(
            "train_end",
            total_steps=history.total_steps,
            wall_seconds=history.wall_seconds,
            best_score=history.best_score,
        )
        self.run.flush()
