"""The :class:`ScenarioResult` contract for scenario return values.

PRs 1–4 let every scenario return whatever dataclass (or raw dict) it
liked; callers dug metrics out by attribute name and the CLI guessed
which fields were scalar.  ``ScenarioResult`` standardizes the
contract: a scenario's result **declares** its metric names, and
:meth:`ScenarioResult.metrics` returns them as an ordered
``{name: scalar}`` mapping that :class:`repro.api.ResultSet`, the CLI
table/CSV/JSON exports and the benchmark suites all consume.

The contract is deliberately thin:

* every scalar dataclass field (``str``/``int``/``float``/``bool``,
  optionally ``Optional``) is a metric, in declaration order;
* non-scalar fields (sample lists, time series) are *payload* —
  reachable through :meth:`payload` and normal attribute access but
  excluded from tables and exports;
* computed metrics (``@property`` values such as the AF ``ratio``) are
  opted in per class via ``__computed_metrics__`` and appended after
  the field metrics.

:func:`~repro.harness.registry.register` refuses a scenario that does
not declare a ``ScenarioResult`` subclass as its return type, and
:class:`repro.api.ResultSet` refuses a record holding anything else.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from typing import Any, ClassVar, Dict, Optional, Tuple

__all__ = [
    "MappingResult",
    "RunFailure",
    "ScenarioResult",
    "is_scalar",
]

#: The JSON-representable scalar types a metric value may take.
SCALARS = (str, int, float, bool)


def is_scalar(value: Any) -> bool:
    """True when ``value`` is a metric-compatible scalar (or ``None``)."""
    return value is None or isinstance(value, SCALARS)


def _is_scalar_annotation(annotation: Any) -> bool:
    """True when a resolved type annotation declares a scalar metric.

    ``Optional[float]`` / ``float | None`` count (the value may be
    ``None``); containers (``List[float]``, tuples, dicts) do not —
    those fields are payload.
    """
    if annotation in SCALARS:
        return True
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        return len(args) == 1 and args[0] in SCALARS
    return False


class ScenarioResult:
    """Base class for scenario result records (subclass + ``@dataclass``).

    Subclasses are ordinary dataclasses; the base contributes the
    metric contract only (no fields, no behavior change to equality,
    repr or pickling).  Example::

        @dataclass
        class AfResult(ScenarioResult):
            __computed_metrics__ = ("ratio",)
            protocol: str
            achieved_bps: float
            @property
            def ratio(self) -> float: ...

        AfResult(...).metrics()
        # {"protocol": "qtpaf", "achieved_bps": ..., "ratio": ...}
    """

    #: Property names to append to the metric set, in this order.
    __computed_metrics__: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def metric_names(cls) -> Tuple[str, ...]:
        """Declared metric names: scalar fields, then computed metrics."""
        cached = cls.__dict__.get("_metric_names_cache")
        if cached is None:
            if not dataclasses.is_dataclass(cls):
                raise TypeError(
                    f"{cls.__name__} must be a dataclass to declare metrics"
                )
            hints = typing.get_type_hints(cls)
            names = [
                f.name
                for f in dataclasses.fields(cls)
                if _is_scalar_annotation(hints.get(f.name, str))
            ]
            for name in cls.__computed_metrics__:
                attr = getattr(cls, name, None)
                if not isinstance(attr, property):
                    raise TypeError(
                        f"{cls.__name__}.__computed_metrics__ names "
                        f"{name!r}, which is not a property"
                    )
                names.append(name)
            cached = tuple(names)
            cls._metric_names_cache = cached
        return cached

    def metrics(self) -> Dict[str, Any]:
        """The declared metrics as an ordered ``{name: scalar}`` dict."""
        return {name: getattr(self, name) for name in self.metric_names()}

    def payload(self) -> Dict[str, Any]:
        """The non-metric dataclass fields (series, samples, ...)."""
        metric_fields = set(self.metric_names())
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in metric_fields
        }


@dataclasses.dataclass
class MappingResult(ScenarioResult):
    """A result held as a plain mapping (what ``ResultSet.aggregate`` builds).

    Scalar items become the metrics, in mapping insertion order;
    non-scalar items are payload.  Item access (``result["key"]``) is
    the authoritative way to read a value; attribute access is a
    best-effort convenience that cannot reach keys shadowed by the
    wrapper's own attributes (``data``, ``metrics``, ``payload``).
    """

    data: Dict[str, Any]

    def metrics(self) -> Dict[str, Any]:
        return {k: v for k, v in self.data.items() if is_scalar(v)}

    def payload(self) -> Dict[str, Any]:
        return {k: v for k, v in self.data.items() if not is_scalar(v)}

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def __getattr__(self, name: str) -> Any:
        # attribute-style metric access, matching dataclass results
        try:
            return self.__dict__["data"][name]
        except KeyError:
            raise AttributeError(name) from None


@dataclasses.dataclass
class RunFailure(ScenarioResult):
    """The terminal result of a sweep cell that exhausted its retries.

    Stored in :attr:`~repro.harness.runner.RunRecord.result` when
    ``run_matrix(strict=False)`` gives up on a cell: the record keeps
    its place in the grid (parameters intact, deterministic order) but
    carries a structured failure instead of a scenario result.  The
    scalar fields are the failure's queryable metrics; the traceback is
    payload (``traceback_lines`` / :attr:`traceback`), so it never
    floods a table.

    ``failure_kind`` is the fabric's classification — ``error`` (the
    scenario raised), ``crash`` (the worker died hard), ``timeout``
    (the run exceeded its wall-clock deadline) or ``invalid`` (the
    worker's response failed validation, e.g. a corrupted record) —
    while ``error`` names the underlying exception class when there is
    one.
    """

    failure_kind: str  # error | crash | timeout | invalid
    error: str  # exception class name (or fabric classification)
    message: str
    attempts: int
    elapsed: float  # wall clock across every attempt, seconds
    traceback_lines: Tuple[str, ...] = ()  # payload, not a metric

    @property
    def traceback(self) -> str:
        """The final attempt's formatted traceback ('' when unavailable)."""
        return "\n".join(self.traceback_lines)


def result_type_of(fn: Any) -> Optional[type]:
    """The declared :class:`ScenarioResult` return type of ``fn``, if any."""
    try:
        hints = typing.get_type_hints(fn)
    except Exception:
        # unresolvable annotations; for registered scenarios this is
        # unreachable (the registry's schema derivation resolves the
        # same hints first and fails registration loudly)
        return None
    annotation = hints.get("return")
    if isinstance(annotation, type) and issubclass(annotation, ScenarioResult):
        return annotation
    return None
