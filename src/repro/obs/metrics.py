"""Process-wide metrics registry (counters / gauges / histograms).

The registry is the publication side of the observability plane: the
engine, the sweep fabric and the warm pool all *harvest* their existing
private counters into it at collection boundaries — end of a
``Simulator.run()`` call, end of a sweep — and the registry exports the
resulting labeled series as JSON (:meth:`MetricsRegistry.to_json`) or
Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus`).

Zero-cost-when-disabled contract
--------------------------------

Nothing in this module ever instruments a hot path.  Collection is
**harvest-based**: the hot loops keep maintaining exactly the counters
they always maintained (``QueueStats``, ``PacketPool.hits``,
``Simulator._events_processed``, ``warm_pool_stats()``), and only the
*boundaries* read them out:

* :func:`enable_metrics` installs a run-exit hook on
  :mod:`repro.sim.engine` (one module-global check per ``run()`` call,
  never per event) and flips the process flag;
* :func:`disable_metrics` (the default state) uninstalls it — the hook
  global is ``None`` and simulators do not even track their links, so
  the disabled cost is structurally absent from the event loop;
* sweep-level harvests (:func:`harvest_sweep`) walk the finished
  record list once, guarded by :func:`metrics_enabled` at the caller.

``REPRO_METRICS=1`` in the environment enables the registry at import
time (the CLI ``metrics`` subcommand enables it explicitly).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import env_flag

__all__ = [
    "METRICS_ENV",
    "MetricsRegistry",
    "Metric",
    "disable_metrics",
    "enable_metrics",
    "harvest_simulator",
    "harvest_sweep",
    "metrics_enabled",
    "registry",
    "reset_metrics",
]

#: Environment variable enabling the metrics plane at import time.
METRICS_ENV = "REPRO_METRICS"

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    """Canonical (sorted, stringified) series key for one label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """One named metric holding labeled series (see :class:`MetricsRegistry`).

    A counter accumulates via :meth:`inc`, a gauge holds the last
    :meth:`set`, a histogram accumulates :meth:`observe` into bucket
    counts plus ``sum``/``count``.  The empty label set is a legal
    series (an unlabeled metric has exactly one).
    """

    __slots__ = ("name", "kind", "help", "buckets", "_series")

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; known: {_KINDS}")
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(sorted(buckets)) if kind == "histogram" else ()
        # label-key -> float (counter/gauge) or [bucket_counts, sum, count]
        self._series: Dict[Tuple[Tuple[str, str], ...], Any] = {}

    # -- write side ----------------------------------------------------
    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if self.kind != "counter":
            raise TypeError(f"{self.name} is a {self.kind}, not a counter")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def set(self, value: float, **labels: Any) -> None:
        if self.kind != "gauge":
            raise TypeError(f"{self.name} is a {self.kind}, not a gauge")
        self._series[_label_key(labels)] = float(value)

    def observe(self, value: float, **labels: Any) -> None:
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = [[0] * len(self.buckets), 0.0, 0]
        counts, _, _ = series
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        series[1] += value
        series[2] += 1

    # -- read side -----------------------------------------------------
    def series(self) -> List[Tuple[Dict[str, str], Any]]:
        """``[(labels, value)]`` snapshots, deterministically ordered."""
        out = []
        for key in sorted(self._series):
            value = self._series[key]
            if self.kind == "histogram":
                counts, total, count = value
                value = {
                    "buckets": dict(zip(map(str, self.buckets), counts)),
                    "sum": total,
                    "count": count,
                }
            out.append((dict(key), value))
        return out

    def value(self, **labels: Any) -> Any:
        """The raw value of one series (KeyError when never written)."""
        value = self._series[_label_key(labels)]
        if self.kind == "histogram":
            counts, total, count = value
            return {"buckets": list(counts), "sum": total, "count": count}
        return value


class MetricsRegistry:
    """A named collection of :class:`Metric` objects.

    ``counter``/``gauge``/``histogram`` create-or-return by name (a
    kind mismatch on an existing name raises), so harvest code never
    has to pre-declare.  Thread-safe for registration; value updates
    are plain float ops (the GIL is sufficient for the harvest-side
    write pattern).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: str, help: str,
             buckets: Sequence[float]) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as a "
                    f"{metric.kind}, not a {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Metric(name, kind, help, buckets)
                self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Metric:
        return self._get(name, "counter", help, ())

    def gauge(self, name: str, help: str = "") -> Metric:
        return self._get(name, "gauge", help, ())

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Metric:
        return self._get(name, "histogram", help, buckets)

    def metrics(self) -> List[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def clear(self) -> None:
        self._metrics = {}

    # -- exports -------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """A plain-dict snapshot: ``{name: {kind, help, series: [...]}}``."""
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "series": [
                    {"labels": labels, "value": value}
                    for labels, value in metric.series()
                ],
            }
        return out

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4) of every series."""
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for labels, value in metric.series():
                if metric.kind == "histogram":
                    cumulative = 0
                    raw = metric.value(**labels)
                    for bound, count in zip(metric.buckets, raw["buckets"]):
                        cumulative = count  # bucket counts are cumulative
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_fmt_labels(labels, le=repr(float(bound)))}"
                            f" {count}"
                        )
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_fmt_labels(labels, le='+Inf')} {raw['count']}"
                    )
                    lines.append(
                        f"{metric.name}_sum{_fmt_labels(labels)} "
                        f"{_fmt_value(raw['sum'])}"
                    )
                    lines.append(
                        f"{metric.name}_count{_fmt_labels(labels)} "
                        f"{raw['count']}"
                    )
                else:
                    lines.append(
                        f"{metric.name}{_fmt_labels(labels)} "
                        f"{_fmt_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_labels(labels: Dict[str, str], **extra: str) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{v}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


# ----------------------------------------------------------------------
# the process-wide default registry and the enable gate
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()
_ENABLED = False


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def metrics_enabled() -> bool:
    """True when the metrics plane is on (harvests should publish)."""
    return _ENABLED


def enable_metrics() -> None:
    """Turn the metrics plane on (idempotent).

    Installs the engine run-exit hook: from now on every
    ``Simulator.run()`` in this process publishes its event count,
    events/s and final heap depth, and newly constructed simulators
    track their links so per-queue color counters can be harvested at
    run exit.  The hook is a module global checked once per ``run()``
    call — never inside the event loop.
    """
    global _ENABLED
    _ENABLED = True
    from repro.sim import engine

    engine._obs_run_hook = _engine_run_hook


def disable_metrics() -> None:
    """Turn the metrics plane off (the default; idempotent)."""
    global _ENABLED
    _ENABLED = False
    from repro.sim import engine

    engine._obs_run_hook = None


def reset_metrics() -> None:
    """Clear every recorded series (the enable state is unchanged)."""
    _REGISTRY.clear()


# ----------------------------------------------------------------------
# harvests
# ----------------------------------------------------------------------
def _engine_run_hook(sim: Any, processed: int, wall: float) -> None:
    """Publish one finished ``Simulator.run()`` call (engine-installed)."""
    harvest_simulator(sim, processed=processed, wall=wall)


def harvest_simulator(sim: Any, processed: Optional[int] = None,
                      wall: Optional[float] = None) -> None:
    """Publish one simulator's counters into the default registry.

    Called automatically at ``run()`` exit while metrics are enabled;
    may also be called manually with any live simulator.  Publishes the
    engine series (events processed, events/s, heap depth) plus — for
    simulators constructed while metrics were enabled — the per-link
    queue accept/drop counters by DiffServ color and the packet-pool
    hit/miss/recycle counters.
    """
    reg = _REGISTRY
    if processed is None:
        processed = sim.events_processed
    reg.counter(
        "repro_engine_events_total", "callbacks executed by the event loop"
    ).inc(processed)
    if wall is not None and wall > 0:
        reg.gauge(
            "repro_engine_events_per_second",
            "event rate of the most recent run() call",
        ).set(processed / wall)
    reg.gauge(
        "repro_engine_heap_depth", "calendar entries at run() exit"
    ).set(len(sim._heap))
    pool = getattr(sim, "_packet_pool", None)
    if pool:
        pool_metric = reg.gauge(
            "repro_packet_pool", "packet pool lifecycle counters"
        )
        pool_metric.set(pool.hits, event="hits")
        pool_metric.set(pool.misses, event="misses")
        pool_metric.set(pool.recycled, event="recycled")
    links = getattr(sim, "_obs_links", None)
    if links:
        accepts = reg.gauge(
            "repro_queue_accepts", "packets accepted per link queue and color"
        )
        drops = reg.gauge(
            "repro_queue_drops", "packets dropped per link queue and color"
        )
        for link in links:
            stats = link.queue.stats
            for color, n in stats.accepts_by_color.items():
                if n:
                    accepts.set(n, link=link.name, color=color.name)
            for color, n in stats.drops_by_color.items():
                if n:
                    drops.set(n, link=link.name, color=color.name)


def harvest_sweep(records: Iterable[Any]) -> None:
    """Publish one finished sweep's record list into the registry.

    Harvests cache hits/misses, per-status cell counts, retry totals,
    terminal failures by kind, fresh cell wall/CPU time histograms, the
    warm-pool lifecycle counters and the corrupt-cache quarantine
    count.  One pass over the records; called only at sweep end and
    only while :func:`metrics_enabled`.
    """
    from repro.harness.runner import quarantine_count, warm_pool_stats

    reg = _REGISTRY
    cells = reg.counter("repro_sweep_cells_total", "sweep cells by status")
    retries = reg.counter(
        "repro_sweep_retries_total", "extra attempts spent across all cells"
    )
    failures = reg.counter(
        "repro_sweep_failures_total", "terminal cell failures by kind"
    )
    hits = reg.counter("repro_cache_hits_total", "sweep memo cache hits")
    misses = reg.counter("repro_cache_misses_total", "sweep memo cache misses")
    wall = reg.histogram(
        "repro_sweep_cell_seconds", "wall-clock seconds per fresh cell"
    )
    cpu = reg.histogram(
        "repro_sweep_cell_cpu_seconds", "CPU seconds per fresh cell"
    )
    n_hit = n_miss = 0
    for record in records:
        if record.cached:
            n_hit += 1
            cells.inc(status="cached")
            continue
        n_miss += 1
        if record.attempts > 1:
            retries.inc(record.attempts - 1)
        if record.ok:
            cells.inc(status="ok")
            wall.observe(record.elapsed)
            if record.cpu:
                cpu.observe(record.cpu)
        else:
            cells.inc(status="failed")
            failures.inc(kind=record.result.failure_kind)
    if n_hit:
        hits.inc(n_hit)
    if n_miss:
        misses.inc(n_miss)
    pool = reg.gauge(
        "repro_warm_pool", "warm worker-pool lifecycle counters"
    )
    for event, count in warm_pool_stats().items():
        pool.set(count, event=event)
    reg.gauge(
        "repro_cache_quarantines", "corrupt cache entries quarantined"
    ).set(quarantine_count())


if env_flag(METRICS_ENV):
    enable_metrics()
