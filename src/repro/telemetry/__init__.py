"""Run-wide observability: metrics, spans, event logs, run manifests.

The telemetry stack is the substrate every performance claim in this
repo is measured against (the paper's own headline limitation is
wall-clock cost).  It has four layers, composable bottom-up:

- :mod:`repro.telemetry.metrics` -- counters, gauges, streaming
  histograms behind a :class:`MetricsRegistry`;
- :mod:`repro.telemetry.spans` -- nested wall-time spans with
  parent/child attribution;
- :mod:`repro.telemetry.sinks` -- pluggable persistence
  (:class:`JsonlEventSink`, :class:`CsvMetricsSink`) behind the
  :class:`TelemetrySink` protocol;
- :mod:`repro.telemetry.run` -- :class:`TelemetryRun` ties a run
  directory (manifest.json / events.jsonl / metrics.csv) together and
  exposes a :class:`TrainerCallback` for the training loops.

``repro inspect <run-dir>`` (:mod:`repro.telemetry.summary`) renders a
report from the emitted files alone.
"""

from repro.telemetry.callbacks import (
    CallbackList,
    StepInfo,
    TrainerCallback,
)
from repro.telemetry.manifest import MANIFEST_NAME, RunManifest, git_revision
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_COLUMNS,
)
from repro.telemetry.run import (
    EVENTS_NAME,
    METRICS_NAME,
    TelemetryCallback,
    TelemetryRun,
)
from repro.telemetry.sinks import (
    CsvMetricsSink,
    JsonlEventSink,
    TelemetrySink,
    read_events,
    read_metrics_csv,
)
from repro.telemetry.spans import SpanStats, SpanTracer
from repro.telemetry.summary import RunRecord, load_run, render_summary

__all__ = [
    "CallbackList",
    "Counter",
    "CsvMetricsSink",
    "EVENTS_NAME",
    "Gauge",
    "Histogram",
    "JsonlEventSink",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "MetricsRegistry",
    "RunManifest",
    "RunRecord",
    "SNAPSHOT_COLUMNS",
    "SpanStats",
    "SpanTracer",
    "StepInfo",
    "TelemetryCallback",
    "TelemetryRun",
    "TelemetrySink",
    "TrainerCallback",
    "git_revision",
    "load_run",
    "read_events",
    "read_metrics_csv",
    "render_summary",
]
