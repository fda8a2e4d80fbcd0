"""Scenario registry: named, schema'd, sweepable experiment builders.

Every canonical experiment function (one per DESIGN.md experiment) is
registered here with

* a stable **name** (``af_assurance``, ``smoothness``, ...) used by the
  sweep runner, the CLI and the on-disk result cache;
* a **parameter schema** derived from the function signature (names,
  types and defaults), used to validate sweep grids and to coerce
  command-line strings;
* a **default sweep grid** — the paper's parameter ranges — so
  ``python -m repro.harness run <name>`` with no arguments regenerates
  a meaningful table.

Registered functions must accept only JSON-representable parameters
(str/int/float/bool/None): that is what makes runs hashable for the
cache and expressible on a command line.  Scenarios whose natural API
takes richer objects (profiles, enum modes) register a thin adapter
that maps names to objects (see ``experiments/receiver_load.py``).
"""

from __future__ import annotations

import inspect
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.result import SCALARS, result_type_of

#: One shared notion of "JSON-representable scalar" with the result
#: contract (repro.harness.result.SCALARS), plus None for Optionals.
_JSON_SCALARS = SCALARS + (type(None),)


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: callable plus its sweepable parameter space."""

    name: str
    fn: Callable[..., Any]
    description: str
    params: Mapping[str, type]
    defaults: Mapping[str, Any]
    #: Declared :class:`~repro.harness.result.ScenarioResult` subclass
    #: returned by ``fn``.
    result_type: type
    default_grid: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    optional: frozenset = frozenset()  # params typed Optional[...]

    def bind(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate ``params`` against the schema and return call kwargs."""
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"known: {sorted(self.params)}"
            )
        missing = sorted(set(self.params) - set(self.defaults) - set(params))
        if missing:
            raise ValueError(
                f"scenario {self.name!r} is missing required parameter(s) {missing}"
            )
        return dict(params)

    def coerce(self, name: str, text: str) -> Any:
        """Coerce a command-line string to the parameter's declared type."""
        if name not in self.params:
            raise ValueError(
                f"scenario {self.name!r} has no parameter {name!r}; "
                f"known: {sorted(self.params)}"
            )
        # "none" only means None for Optional parameters; for a plain
        # str parameter it is a legitimate value (e.g. reliability
        # mode "none"), and for int/float it must be a parse error
        if name in self.optional and text.lower() in ("none", "null"):
            return None
        return _coerce(text, self.params[name])


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(
    name: str,
    *,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    description: str = "",
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the decorated function as the scenario ``name``.

    ``grid`` is the default sweep (parameter name → sequence of values)
    used when a caller does not supply one.  The parameter schema is
    derived from the function's signature and type hints, and the
    function must declare a :class:`~repro.harness.result.ScenarioResult`
    subclass as its return type (``TypeError`` otherwise).
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        params, defaults, optional = _schema_of(fn)
        frozen_grid = {k: tuple(v) for k, v in (grid or {}).items()}
        for key in frozen_grid:
            if key not in params:
                raise ValueError(
                    f"default grid for {name!r} names unknown parameter {key!r}"
                )
        result_type = result_type_of(fn)
        if result_type is None:
            raise TypeError(
                f"scenario {name!r} must declare a ScenarioResult "
                "subclass as its return type"
            )
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            fn=fn,
            description=description or _first_line(fn.__doc__),
            params=params,
            defaults=defaults,
            default_grid=frozen_grid,
            optional=optional,
            result_type=result_type,
        )
        return fn

    return decorator


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario, loading the experiment modules."""
    load_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_scenarios() -> List[ScenarioSpec]:
    """All registered scenarios, sorted by name."""
    load_experiments()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def load_experiments() -> None:
    """Import the experiment modules so their ``@register`` calls run.

    Idempotent; safe to call from worker processes (the registry in a
    spawned child starts empty and is populated on first use).
    """
    import repro.harness.experiments  # noqa: F401  (import side effect)


# ----------------------------------------------------------------------
# schema derivation and CLI coercion
# ----------------------------------------------------------------------
def _schema_of(
    fn: Callable[..., Any]
) -> Tuple[Dict[str, type], Dict[str, Any], frozenset]:
    hints = typing.get_type_hints(fn)
    params: Dict[str, type] = {}
    defaults: Dict[str, Any] = {}
    optional = set()
    for pname, p in inspect.signature(fn).parameters.items():
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            raise ValueError(
                f"scenario function {fn.__name__} may not use *args/**kwargs"
            )
        annotation = hints.get(pname, str)
        params[pname] = _scalar_type(annotation)
        if _is_optional(annotation):
            optional.add(pname)
        if p.default is not inspect.Parameter.empty:
            defaults[pname] = p.default
    return params, defaults, frozenset(optional)


def _is_union(annotation: Any) -> bool:
    # typing.Union[...] and PEP 604 `X | Y` have different origins
    return typing.get_origin(annotation) in (typing.Union, types.UnionType)


def _is_optional(annotation: Any) -> bool:
    return _is_union(annotation) and type(None) in typing.get_args(annotation)


def _scalar_type(annotation: Any) -> type:
    """Reduce an annotation to the scalar type used for CLI coercion."""
    if _is_union(annotation):  # Optional[X] / X | None → X
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if len(args) == 1:
            return _scalar_type(args[0])
    if annotation in _JSON_SCALARS:
        return annotation
    return str


def _coerce(text: str, target: type) -> Any:
    if target is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse {text!r} as bool")
    if target is int:
        value = float(text)  # accept scientific notation like 1e3
        if not value.is_integer():
            raise ValueError(f"cannot parse {text!r} as int")
        return int(value)
    if target is float:
        return float(text)
    return text


def _first_line(doc: Optional[str]) -> str:
    return (doc or "").strip().splitlines()[0] if doc else ""
