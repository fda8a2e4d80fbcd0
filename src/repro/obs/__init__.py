"""repro.obs — the unified observability plane.

Four layers, all zero-cost when disabled (the default):

* :mod:`repro.obs.metrics` — process-wide metrics registry
  (``REPRO_METRICS=1`` / :func:`enable_metrics`), JSON + Prometheus
  exports, harvest hooks for the engine and the sweep fabric;
* :mod:`repro.obs.spans` — structured per-cell span tracing
  (``Experiment.trace()``), JSONL next to the sweep manifest,
  ``--trace-summary`` tables;
* :mod:`repro.obs.progress` — live ``--progress`` rendering on stderr;
* :mod:`repro.obs.profiling` — per-cell cProfile capture
  (``REPRO_PROFILE=1`` / ``Experiment.profile()``) with cross-sweep
  hotspot aggregation.

See ``docs/observability.md`` for the full flag reference.
"""

from repro.obs.metrics import (
    METRICS_ENV,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    harvest_simulator,
    harvest_sweep,
    metrics_enabled,
    registry,
    reset_metrics,
)
from repro.obs.profiling import (
    PROFILE_ENV,
    hotspot_table,
    merge_profiles,
    profile_call,
    profiling_requested,
)
from repro.obs.progress import ProgressRenderer
from repro.obs.spans import (
    SpanWriter,
    format_span_summary,
    span_summary,
)

__all__ = [
    "METRICS_ENV",
    "MetricsRegistry",
    "PROFILE_ENV",
    "ProgressRenderer",
    "SpanWriter",
    "disable_metrics",
    "enable_metrics",
    "format_span_summary",
    "harvest_simulator",
    "harvest_sweep",
    "hotspot_table",
    "merge_profiles",
    "metrics_enabled",
    "profile_call",
    "profiling_requested",
    "registry",
    "reset_metrics",
    "span_summary",
]
