""":class:`Experiment` — the fluent front door to scenario sweeps.

An :class:`Experiment` names one registered scenario and accumulates
the sweep definition — axes, fixed configuration, seeds, worker count,
cache location — validating every parameter name against the registry
schema *at call time*, so a typo fails where it was written instead of
inside a worker process.  :meth:`run` executes through the existing
warm :func:`~repro.harness.runner.run_matrix` machinery (deterministic
grid order, on-disk memo, warm worker pool) and returns a
:class:`~repro.api.resultset.ResultSet`.

Typical use::

    from repro.api import Experiment

    results = (
        Experiment("af_assurance")
        .sweep(protocol=("tcp", "qtpaf"), target_bps=(2e6, 4e6))
        .configure(n_cross=8, duration=40.0)
        .seeds(range(5))
        .workers(8)
        .run()
    )
    print(results.aggregate("ratio", over="seed").table())
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.resultset import ResultSet
from repro.harness.registry import ScenarioSpec, get_scenario
from repro.harness.runner import RunRecord, run_matrix

__all__ = ["Experiment"]


class Experiment:
    """A declarative, schema-checked sweep over one registered scenario.

    The builder methods mutate and return ``self`` so definitions read
    as one fluent chain; :meth:`run` may be called repeatedly (e.g.
    with different caches) — the definition is not consumed.
    """

    def __init__(self, scenario: Union[str, ScenarioSpec]):
        if isinstance(scenario, ScenarioSpec):
            # run() executes by registry name, so the spec must BE the
            # registered one — a hand-built or modified spec would
            # validate against one schema here and execute another
            # function there, defeating the fail-at-call-site design
            registered = get_scenario(scenario.name)
            if registered is not scenario:
                raise ValueError(
                    f"spec {scenario.name!r} is not the registered "
                    "ScenarioSpec; pass the object returned by "
                    "repro.harness.registry.get_scenario()"
                )
            self._spec = scenario
        else:
            self._spec = get_scenario(scenario)
        self._grid: Dict[str, Tuple[Any, ...]] = {}
        self._base: Dict[str, Any] = {}
        self._seeds: Optional[List[int]] = None
        self._workers: Optional[int] = 1
        self._cache_dir: Optional[Path] = None
        self._max_retries: Optional[int] = None
        self._run_timeout: Optional[float] = None
        self._trace: bool = False
        self._profile: bool = False

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Experiment":
        """Build directly from a registry :class:`ScenarioSpec`."""
        return cls(spec)

    # ------------------------------------------------------------------
    # definition
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ScenarioSpec:
        """The registered scenario this experiment sweeps."""
        return self._spec

    @property
    def grid(self) -> Dict[str, Tuple[Any, ...]]:
        """The effective sweep grid (the registered default when empty)."""
        return dict(self._grid) if self._grid else dict(self._spec.default_grid)

    def _check_params(self, names: Iterable[str], what: str) -> None:
        unknown = sorted(set(names) - set(self._spec.params))
        if unknown:
            raise ValueError(
                f"scenario {self._spec.name!r} has no parameter(s) "
                f"{unknown} (in {what}); known: {sorted(self._spec.params)}"
            )

    def sweep(
        self,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        /,
        **kw_axes: Sequence[Any],
    ) -> "Experiment":
        """Add sweep axes (``param=values``); replaces the default grid.

        Repeated calls accumulate; re-sweeping an axis replaces its
        values.  Axis names are validated against the scenario schema
        immediately, and every axis needs at least one value.
        """
        merged = {**(axes or {}), **kw_axes}
        self._check_params(merged, "sweep")
        for name, values in merged.items():
            frozen = tuple(values)
            if not frozen:
                raise ValueError(f"sweep axis {name!r} has no values")
            self._grid[name] = frozen
        return self

    def configure(self, **fixed: Any) -> "Experiment":
        """Fix parameters for every run (a sweep axis wins on conflict)."""
        self._check_params(fixed, "configure")
        self._base.update(fixed)
        return self

    def seeds(self, seeds: Union[int, Iterable[int]]) -> "Experiment":
        """Cross these seeds with every grid point (fastest-varying axis)."""
        self._seeds = [seeds] if isinstance(seeds, int) else list(seeds)
        if not self._seeds:
            raise ValueError("need at least one seed")
        return self

    def workers(self, n: Optional[int]) -> "Experiment":
        """Worker processes: 1 = in-process serial, ``None``/0 = one per CPU."""
        if n is not None and n < 0:
            raise ValueError(f"workers must be >= 0 or None, got {n}")
        self._workers = None if not n else int(n)
        return self

    def cache(self, directory: Optional[Union[str, Path]]) -> "Experiment":
        """Memoize runs under ``directory`` (``None`` disables caching)."""
        self._cache_dir = None if directory is None else Path(directory)
        return self

    def retries(self, n: int) -> "Experiment":
        """Retry each failed run up to ``n`` extra times (backoff+jitter)."""
        if n < 0:
            raise ValueError(f"retries must be >= 0, got {n}")
        self._max_retries = int(n)
        return self

    def timeout(self, seconds: Optional[float]) -> "Experiment":
        """Per-run wall-clock deadline (``None`` disables the deadline).

        Setting a deadline forces pool execution even for one worker —
        an in-process run cannot preempt itself.
        """
        if seconds is not None and seconds <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {seconds}")
        self._run_timeout = None if seconds is None else float(seconds)
        return self

    def trace(self, enabled: bool = True) -> "Experiment":
        """Record structured span events for every cell of the sweep.

        The events land on ``ResultSet.spans``; with a configured
        :meth:`cache` they are also journaled as JSONL next to the
        sweep manifest (``<scenario>.spans.jsonl``).  Off by default —
        an untraced sweep constructs no events anywhere.
        """
        self._trace = bool(enabled)
        return self

    def profile(self, enabled: bool = True) -> "Experiment":
        """Wrap each fresh cell in cProfile (``REPRO_PROFILE=1`` twin).

        The compact per-cell stats ride ``RunRecord.profile``;
        aggregate them with :func:`repro.obs.merge_profiles` /
        :func:`repro.obs.hotspot_table`.
        """
        self._profile = bool(enabled)
        return self

    def n_cells(self) -> int:
        """The number of cells this definition expands to."""
        from repro.harness.runner import expand_grid

        n = len(expand_grid(self.grid))
        if self._seeds is not None:
            n *= len(self._seeds)
        return n

    def describe(self) -> Dict[str, Any]:
        """The accumulated definition as one JSON-ready dict.

        This is the serialization :mod:`repro.campaign` persists in
        ``campaign.json``; rebuilding an :class:`Experiment` from it
        (same scenario, grid, base, seeds, workers, retries, timeout)
        reproduces this definition exactly — parameter *values* must
        therefore be JSON-representable to round-trip.  Only the
        explicitly set grid is recorded (``{}`` means the registered
        default grid applies at run time).
        """
        return {
            "scenario": self._spec.name,
            "grid": {name: list(values) for name, values in self._grid.items()},
            "base": dict(self._base),
            "seeds": list(self._seeds) if self._seeds is not None else None,
            "workers": self._workers,
            "retries": self._max_retries,
            "timeout": self._run_timeout,
        }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        progress: Optional[Callable[[RunRecord], None]] = None,
        *,
        on_failure: str = "raise",
        resume: bool = False,
        observer: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> ResultSet:
        """Execute the sweep and return its :class:`ResultSet`.

        Delegates to :func:`repro.harness.runner.run_matrix`: the grid
        expands in axis-insertion order, seeds vary fastest, records
        come back in deterministic grid order, completed runs are
        memoized in the configured cache, and multi-worker runs reuse
        the process-global warm pool.

        ``on_failure`` selects the failure semantics:

        ``"raise"`` (default)
            the first terminal failure raises (the seed behaviour) —
            the original exception where it survives pickling,
            :class:`~repro.harness.runner.SweepRunError` otherwise;
        ``"keep"``
            failed cells become part of the :class:`ResultSet`
            (``results.failures()`` / ``results.ok()``) and the sweep
            always completes;
        ``"retry"``
            like ``"keep"``, but with retries defaulting to 2 when
            :meth:`retries` was not called.

        ``resume=True`` re-opens this sweep's journaled manifest and
        re-runs only missing/failed cells (requires a configured
        :meth:`cache`).

        ``observer``, when given, receives every span event of the
        sweep (see :mod:`repro.obs.spans` for the vocabulary) — this is
        what the CLI ``--progress`` renderer hooks; it composes with
        :meth:`trace`, which additionally journals the events.
        """
        if on_failure not in ("raise", "keep", "retry"):
            raise ValueError(
                f"on_failure must be 'raise', 'keep' or 'retry', "
                f"got {on_failure!r}"
            )
        max_retries = self._max_retries or 0
        if on_failure == "retry" and self._max_retries is None:
            max_retries = 2

        writer = None
        run_observer = observer
        if self._trace:
            from repro.harness.runner import make_cache, spans_path
            from repro.obs.spans import SpanWriter

            cache = make_cache(self._cache_dir)
            path = (
                str(spans_path(cache, self._spec.name))
                if cache is not None else None
            )
            writer = SpanWriter(path, header={
                "scenario": self._spec.name,
                "cells": self.n_cells(),
                "started": time.time(),
            })
            if observer is None:
                run_observer = writer
            else:
                observer(writer.events[0])  # replay the sweep header

                def run_observer(event, _w=writer, _o=observer):
                    _w(event)
                    _o(event)

        try:
            records = run_matrix(
                self._spec.name,
                self._grid or None,
                base=self._base or None,
                seeds=self._seeds,
                workers=self._workers,
                cache_dir=self._cache_dir,
                progress=progress,
                max_retries=max_retries,
                run_timeout=self._run_timeout,
                strict=(on_failure == "raise"),
                resume=resume,
                observer=run_observer,
                profile=self._profile,
            )
        finally:
            if writer is not None:
                writer.close()

        declared = None
        if self._spec.result_type is not None:
            metric_names = getattr(self._spec.result_type, "metric_names", None)
            if callable(metric_names):
                declared = list(metric_names())

        obs_snapshot = None
        from repro.obs.metrics import metrics_enabled

        if metrics_enabled():
            from repro.obs.metrics import harvest_sweep, registry

            harvest_sweep(records)
            obs_snapshot = registry().to_json()

        return ResultSet(
            records,
            declared_metrics=declared,
            spans=writer.events if writer is not None else None,
            obs_metrics=obs_snapshot,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        parts = [f"scenario={self._spec.name!r}", f"grid={self.grid!r}"]
        if self._base:
            parts.append(f"base={self._base!r}")
        if self._seeds is not None:
            parts.append(f"seeds={self._seeds!r}")
        return f"Experiment({', '.join(parts)})"
