""":class:`ResultSet` — the typed, queryable container for sweep results.

A :class:`ResultSet` wraps the :class:`~repro.harness.runner.RunRecord`
list a sweep produced and answers the questions every benchmark and
analysis script used to hand-roll:

* **lookup** — :meth:`one` / :meth:`value` fetch the single run (or one
  metric of it) matching a parameter/metric query;
* **slicing** — :meth:`filter` and :meth:`group_by` carve the set by
  parameters (or metrics), preserving deterministic grid order;
* **aggregation** — :meth:`aggregate` folds an axis (typically
  ``seed``) into mean/std/min/max/percentile summary rows;
* **presentation** — :meth:`table` renders via
  :func:`repro.harness.tables.format_table`, :meth:`to_rows` /
  :meth:`to_csv` / :meth:`to_json` export machine-readable forms.

Every record's result must be a
:class:`~repro.harness.result.ScenarioResult` (a ``TypeError`` naming
the scenario otherwise), so the container never exposes free-form
payloads.

Partial results (PR 7): a sweep run with ``on_failure="keep"`` may
contain terminally failed cells — records whose result is a
:class:`~repro.harness.result.RunFailure`.  The container surfaces
them instead of hiding them: :meth:`ok` / :meth:`failures` split the
set, :meth:`coverage` reports the completed fraction, tables and CSV
grow a ``status`` column *only when failures are present* (a fully
successful sweep renders byte-identically to before), metric columns
come from successful runs only, and :meth:`aggregate` skips failed
cells while counting them per group in a ``failed`` column.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.ioutil import atomic_write_text
from repro.harness.result import MappingResult, RunFailure, ScenarioResult
from repro.harness.runner import RunRecord
from repro.harness.tables import format_table
from repro.metrics.stats import mean as _mean
from repro.metrics.stats import percentile as _percentile
from repro.metrics.stats import stddev as _stddev

__all__ = ["ResultSet", "UnknownMetricError"]


class UnknownMetricError(KeyError):
    """A requested metric is not part of the scenario's declared contract.

    Raised by :meth:`ResultSet.value` and :meth:`ResultSet.aggregate`
    instead of a bare ``KeyError`` so the caller sees *which* metric
    was asked for and what the scenario actually declares — a typo in
    a benchmark script fails with the contract in hand, not with
    ``KeyError: 'ratio'``.  Subclasses ``KeyError`` so existing
    ``except KeyError`` call sites keep working.
    """

    def __init__(self, metric: str, known: Sequence[str], scenario: str = ""):
        where = f" of scenario {scenario!r}" if scenario else ""
        message = (
            f"unknown metric {metric!r}: not in the declared "
            f"contract{where}; known metrics: {sorted(known)}"
        )
        super().__init__(message)
        self.metric = metric
        self.known = sorted(known)
        self.scenario = scenario

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]

#: Named statistics understood by :meth:`ResultSet.aggregate`; ``pNN``
#: strings (``p50``, ``p95``, ...) are resolved dynamically.
_STATS: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": _mean,
    "std": _stddev,
    "min": min,
    "max": max,
}


def _stat_fn(stat: str) -> Callable[[Sequence[float]], float]:
    fn = _STATS.get(stat)
    if fn is not None:
        return fn
    if stat.startswith("p") and stat[1:].isdigit():
        q = int(stat[1:])
        if 0 <= q <= 100:
            return lambda values: _percentile(values, q)
    raise ValueError(
        f"unknown statistic {stat!r}; known: "
        f"{sorted(_STATS)} plus percentiles like 'p95'"
    )


#: Sentinel distinguishing "metric absent" from a legitimate None value.
_MISSING = object()


class ResultSet:
    """An ordered, queryable collection of completed runs.

    Iteration yields :class:`RunRecord` objects in the deterministic
    grid order the runner produced; :attr:`results` yields the typed
    :class:`ScenarioResult` values.
    """

    def __init__(
        self,
        records: Sequence[RunRecord],
        *,
        declared_metrics: Optional[Sequence[str]] = None,
        spans: Optional[Sequence[Dict[str, Any]]] = None,
        obs_metrics: Optional[Dict[str, Any]] = None,
        _parent: Optional["ResultSet"] = None,
    ):
        self._records: List[RunRecord] = list(records)
        # the scenario's declared metric schema (from its registered
        # result type), used only when no successful record can supply
        # one — deliberately NOT inherited by derived slices, whose
        # records define their own schema (failures().metric_names must
        # keep exposing the failure fields)
        self._declared_metrics = (
            list(declared_metrics) if declared_metrics is not None else None
        )
        # observability payloads attached by Experiment.run (root set
        # only; slices answer through the records they hold)
        self._spans = list(spans) if spans is not None else None
        self._obs_metrics = obs_metrics
        # per-record metrics cache: query helpers visit every record
        # per call, and computed @property metrics should be evaluated
        # once per record, not once per table cell.  Derived sets
        # (filter/group_by slices) share the parent's cache — they hold
        # the same, already checked, record objects (keys are record ids).
        if _parent is not None:
            self._metric_cache = _parent._metric_cache
        else:
            for record in self._records:
                if not isinstance(record.result, ScenarioResult):
                    raise TypeError(
                        f"scenario {record.scenario!r} returned a "
                        f"{type(record.result).__name__}, not a "
                        "ScenarioResult"
                    )
            self._metric_cache: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> RunRecord:
        return self._records[index]

    def __repr__(self) -> str:
        names = sorted({r.scenario for r in self._records})
        n_failed = sum(1 for r in self._records if self._is_failure(r))
        failed = f", {n_failed} failed" if n_failed else ""
        return (
            f"ResultSet({len(self._records)} runs{failed}, scenario={names})"
        )

    @property
    def records(self) -> List[RunRecord]:
        """The underlying run records (grid order)."""
        return list(self._records)

    @property
    def results(self) -> List[ScenarioResult]:
        """Every run's result under the :class:`ScenarioResult` contract."""
        return [r.result for r in self._records]

    def _metrics_of(self, record: RunRecord) -> Dict[str, Any]:
        """The record's metrics dict, computed once (do not mutate)."""
        key = id(record)
        metrics = self._metric_cache.get(key)
        if metrics is None:
            metrics = record.result.metrics()
            self._metric_cache[key] = metrics
        return metrics

    @staticmethod
    def _is_failure(record: RunRecord) -> bool:
        return isinstance(record.result, RunFailure)

    # ------------------------------------------------------------------
    # partial results
    # ------------------------------------------------------------------
    def ok(self) -> "ResultSet":
        """The successfully completed runs (grid order preserved)."""
        return ResultSet(
            [r for r in self._records if not self._is_failure(r)],
            _parent=self,
        )

    def failures(self) -> "ResultSet":
        """The terminally failed cells (records carrying a RunFailure).

        The failure's own metrics (``failure_kind``, ``error``,
        ``attempts``, ...) are queryable on the returned set, so
        ``results.failures().filter(failure_kind="timeout")`` works.
        """
        return ResultSet(
            [r for r in self._records if self._is_failure(r)],
            _parent=self,
        )

    @property
    def has_failures(self) -> bool:
        """True when any cell in this set failed terminally."""
        return any(self._is_failure(r) for r in self._records)

    def coverage(self) -> float:
        """Completed fraction of the set, in [0, 1] (1.0 when empty)."""
        if not self._records:
            return 1.0
        n_ok = sum(1 for r in self._records if not self._is_failure(r))
        return n_ok / len(self._records)

    # ------------------------------------------------------------------
    # observability payloads (attached by Experiment.run on the root set)
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Optional[List[Dict[str, Any]]]:
        """The sweep's span events when tracing was on, else ``None``."""
        return list(self._spans) if self._spans is not None else None

    def metrics(self) -> Optional[Dict[str, Any]]:
        """The metrics-registry snapshot harvested for this sweep.

        ``None`` unless the metrics plane was enabled
        (:func:`repro.obs.enable_metrics` / ``REPRO_METRICS=1``) when
        the sweep ran; see :meth:`MetricsRegistry.to_json
        <repro.obs.metrics.MetricsRegistry.to_json>` for the shape.
        """
        return self._obs_metrics

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    @property
    def param_names(self) -> List[str]:
        """Union of parameter names, in first-appearance order."""
        names: List[str] = []
        for record in self._records:
            for key in record.params:
                if key not in names:
                    names.append(key)
        return names

    @property
    def metric_names(self) -> List[str]:
        """Union of metric names, in first-appearance order.

        Metrics shadowed by an identically-named parameter are dropped
        (the parameter column already carries the value).  Failed cells
        contribute no names: their :class:`RunFailure` fields describe
        the failure, not the scenario, and belong to
        ``failures().metric_names`` (where every record is a failure,
        they *are* the schema).
        """
        params = set(self.param_names)
        records = [r for r in self._records if not self._is_failure(r)]
        if not records and self._declared_metrics is not None:
            # no successful record can supply a schema (all-failed or
            # empty sweep): fall back to the scenario's declared one so
            # exports still emit explicit, parseable columns
            return [n for n in self._declared_metrics if n not in params]
        if not records:  # a pure-failure set: the failure IS the schema
            records = self._records
        names: List[str] = []
        for record in records:
            for key in self._metrics_of(record):
                if key not in names and key not in params:
                    names.append(key)
        return names

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _known_keys(self) -> set:
        """Every key queryable somewhere in the set (params and metrics)."""
        known: set = set()
        for record in self._records:
            known.update(record.params)
            known.update(self._metrics_of(record))
        return known

    def _matches(self, record: RunRecord, query: Mapping[str, Any]) -> bool:
        metrics: Optional[Dict[str, Any]] = None
        for key, expected in query.items():
            if key in record.params:
                if record.params[key] != expected:
                    return False
                continue
            if metrics is None:
                metrics = self._metrics_of(record)
            # a key this record simply does not carry (heterogeneous
            # sets, aggregated rows) is a non-match, not an error —
            # filter() has already rejected set-wide unknowns
            if metrics.get(key, _MISSING) != expected:
                return False
        return True

    def filter(
        self,
        predicate: Optional[Callable[[RunRecord], bool]] = None,
        **query: Any,
    ) -> "ResultSet":
        """Runs matching ``predicate`` and/or ``param=value`` equality.

        Query keys name run parameters first, falling back to declared
        metrics (so ``filter(profile_name="TFRC")`` works even when the
        sweep axis used a different spelling than the result).  A key
        carried by only *some* runs simply excludes the runs that lack
        it; a key no run in the set carries at all is a typo and raises
        ``KeyError`` rather than silently matching nothing.
        """
        if query and self._records:
            unknown = sorted(set(query) - self._known_keys())
            if unknown:
                raise KeyError(
                    f"{unknown} are neither parameters nor metrics of any "
                    f"run in this set; known: {sorted(self._known_keys())}"
                )
        kept = [
            r
            for r in self._records
            if (predicate is None or predicate(r)) and self._matches(r, query)
        ]
        return ResultSet(kept, _parent=self)

    def _single(self, query: Mapping[str, Any]) -> RunRecord:
        matched = self.filter(**query)
        if len(matched) != 1:
            raise KeyError(
                f"query {query!r} matched {len(matched)} runs, expected 1"
            )
        return matched[0]

    def one(self, **query: Any) -> ScenarioResult:
        """The single result matching ``query`` (KeyError otherwise)."""
        return self._single(query).result

    def value(self, metric: str, **query: Any) -> Any:
        """One metric of the single run matching ``query``.

        Raises :class:`UnknownMetricError` (a ``KeyError``) naming the
        run's declared metrics when ``metric`` is not one of them.
        """
        record = self._single(query)
        metrics = self._metrics_of(record)
        try:
            return metrics[metric]
        except KeyError:
            raise UnknownMetricError(
                metric, list(metrics), record.scenario
            ) from None

    def group_by(self, *keys: str) -> Dict[Any, "ResultSet"]:
        """Partition by parameter values, preserving grid order.

        Returns ``{value: ResultSet}`` for a single key and
        ``{(v1, v2, ...): ResultSet}`` for several; group insertion
        order follows first appearance in the record list.
        """
        if not keys:
            raise ValueError("group_by needs at least one parameter name")
        groups: Dict[Any, List[RunRecord]] = {}
        for record in self._records:
            values = tuple(record.params.get(k) for k in keys)
            key = values[0] if len(keys) == 1 else values
            groups.setdefault(key, []).append(record)
        return {
            key: ResultSet(records, _parent=self)
            for key, records in groups.items()
        }

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate(
        self,
        *metrics: str,
        over: str = "seed",
        stats: Sequence[str] = ("mean", "std"),
    ) -> "ResultSet":
        """Fold the ``over`` axis into summary statistics per group.

        Groups runs by every parameter except ``over``, then reduces
        each requested metric (default: all declared metrics that are
        numeric in every run) with each statistic in ``stats`` —
        ``mean``, ``std`` (population), ``min``, ``max`` or ``pNN``
        percentiles.  The result is a new :class:`ResultSet` whose
        records carry the group parameters, a ``runs`` count and
        ``<metric>_<stat>`` summary metrics.

        Terminally failed cells are *skipped*: statistics fold only
        the successful runs of each group, ``runs`` counts those, and
        — only when the set carries failures at all — each summary row
        gains a ``failed`` count so reduced coverage is visible rather
        than silently averaged over.  A group with no successful run
        keeps its row (``runs`` 0, all statistics ``None``).
        """
        stat_fns = [(s, _stat_fn(s)) for s in stats]
        report_failed = self.has_failures
        groups: Dict[Tuple[Any, ...], List[RunRecord]] = {}
        group_params: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        for record in self._records:
            kept = {k: v for k, v in record.params.items() if k != over}
            key = tuple(sorted(kept.items(), key=lambda kv: kv[0]))
            groups.setdefault(key, []).append(record)
            group_params.setdefault(key, kept)
        aggregated: List[RunRecord] = []
        for key, records in groups.items():
            ok_records = [r for r in records if not self._is_failure(r)]
            rows = [self._metrics_of(r) for r in ok_records]
            names = list(metrics) or [
                name
                for name in ResultSet(ok_records, _parent=self).metric_names
                if all(
                    isinstance(row.get(name), (int, float))
                    and not isinstance(row.get(name), bool)
                    for row in rows
                )
            ]
            summary: Dict[str, Any] = {"runs": len(ok_records)}
            if report_failed:
                summary["failed"] = len(records) - len(ok_records)
            for name in names:
                values = []
                for row in rows:
                    if name not in row:
                        raise UnknownMetricError(
                            name, list(rows[0]), records[0].scenario
                        )
                    values.append(row[name])
                for stat, fn in stat_fns:
                    summary[f"{name}_{stat}"] = (
                        fn(values) if values else None
                    )
            aggregated.append(
                RunRecord(
                    scenario=records[0].scenario,
                    params=group_params[key],
                    result=MappingResult(summary),
                )
            )
        return ResultSet(aggregated)

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_rows(self) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` — parameter columns then metric columns.

        When the set carries failures, a ``status`` column is inserted
        between the parameters and the metrics (``ok`` or
        ``failed:<kind>``), and a failed cell's metric columns are
        blank.  A fully successful set renders exactly as before —
        no extra column.
        """
        param_cols = self.param_names
        metric_cols = self.metric_names
        with_status = self.has_failures
        rows = []
        for record in self._records:
            row = [record.params.get(c, "") for c in param_cols]
            if with_status:
                row.append(
                    f"failed:{record.result.failure_kind}"
                    if self._is_failure(record) else "ok"
                )
            # in a mixed set the metric columns are scenario metrics, so
            # a failed cell's row is naturally blank; in a pure-failure
            # set (failures().table()) the columns ARE the failure
            # fields and fill in
            metrics = self._metrics_of(record)
            row.extend(metrics.get(c, "") for c in metric_cols)
            rows.append(row)
        headers = param_cols + (["status"] if with_status else []) + metric_cols
        return headers, rows

    def table(self, title: str = "") -> str:
        """A fixed-width text table of every run (params + metrics)."""
        headers, rows = self.to_rows()
        return format_table(headers, rows, title=title)

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """CSV export (written to ``path`` when given, always returned)."""
        headers, rows = self.to_rows()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        text = buffer.getvalue()
        if path is not None:
            atomic_write_text(path, text)
        return text

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """JSON export: one object per run with params and metrics.

        Unlike the flat :meth:`to_csv`/:meth:`table` exports — which
        drop metric columns that duplicate a parameter — the nested
        form reports each run's metrics in full: params and metrics
        are separate objects, so the duplication is explicit rather
        than a colliding column.

        A terminally failed cell exports a ``failure`` object (kind,
        error, message, attempts, elapsed) instead of ``metrics``;
        fully successful sets export byte-identically to before.
        """
        payload: List[Dict[str, Any]] = []
        for record in self._records:
            entry: Dict[str, Any] = {
                "scenario": record.scenario,
                "params": dict(record.params),
            }
            if self._is_failure(record):
                failure = record.result
                entry["failure"] = {
                    "kind": failure.failure_kind,
                    "error": failure.error,
                    "message": failure.message,
                    "attempts": failure.attempts,
                    "elapsed": failure.elapsed,
                }
            else:
                entry["metrics"] = self._metrics_of(record)
            payload.append(entry)
        text = json.dumps(payload, indent=2, default=repr)
        if path is not None:
            atomic_write_text(path, text)
        return text
