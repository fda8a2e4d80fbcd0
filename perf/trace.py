"""Tracing for the benchmark's per-layer runs, done from outside ``src/``.

Three tools, all used only by the traced passes (the timed ops never
see any of this):

* :class:`Tracer` — in-memory spans ``{name, start, end, parent, op}``
  recorded around calls into each layer, plus :meth:`Tracer.wrap`, which
  replaces a class or module attribute with a span-recording wrapper for
  the length of one traced op (the sweep fabric's boundaries, and
  ``expand_population`` inside the spec builders);
* :func:`self_times` — a span's duration minus the part of it its direct
  children cover;
* :func:`profile_layers` — ``cProfile`` self time bucketed by source
  file into the layers named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Layers of the profile pass, in ledger order.  ``sim.engine.heap`` is
#: the ``_heapq`` builtins, ``stdlib.random`` is ``random.py`` plus the
#: ``_random`` builtins; everything else is a module path under
#: ``src/repro``.
PROFILE_LAYERS = (
    "sim.engine", "sim.engine.heap", "sim.link", "sim.queues", "sim.node",
    "sim.packet", "tcp", "sack", "tfrc", "core", "reliability", "qos",
    "metrics", "topo", "traffic", "fluid", "netem", "apps", "stdlib.random",
    "other",
)

#: Phase-pass metrics of the simulation workloads: ``(name, unit, better)``.
PHASE_METRICS = (
    ("harness.registry.load_s", "s", "lower"),
    ("traffic.expand_s", "s", "lower"),
    ("traffic.flows", "count", "lower"),
    ("topo.compile_s", "s", "lower"),
    ("fluid.hybridize_s", "s", "lower"),
    ("topo.build_s", "s", "lower"),
    ("topo.flows_built", "count", "lower"),
    ("topo.links_built", "count", "lower"),
    ("sim.engine.run_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.ns_per_event", "ns", "lower"),
    ("sim.engine.sim_s_per_wall_s", "ratio", "higher"),
    ("sim.link.tx_packets", "count", "lower"),
    ("sim.link.ns_per_packet_hop", "ns", "lower"),
    ("sim.queues.enqueued", "count", "lower"),
    ("sim.queues.dropped", "count", "lower"),
    ("metrics.summarise_s", "s", "lower"),
    ("metrics.recorded_packets", "count", "lower"),
    ("fluid.epochs", "count", "lower"),
)

#: Traced-op metrics of the sweep workloads.
SWEEP_METRICS = (
    ("harness.runner.parent_cpu_s", "s", "lower"),
    ("harness.runner.cells", "count", "higher"),
    ("harness.runner.cells_elapsed_s", "s", "lower"),
    ("harness.runner.cells_cpu_s", "s", "lower"),
    ("harness.runner.cell_wait_ratio", "ratio", "lower"),
    ("harness.runner.cache_key_s", "s", "lower"),
    ("harness.runner.cache_load_s", "s", "lower"),
    ("harness.runner.cache_store_s", "s", "lower"),
    ("harness.runner.cache_hits", "count", "higher"),
    ("harness.runner.cache_misses", "count", "lower"),
    ("harness.runner.manifest_s", "s", "lower"),
    ("harness.runner.manifest_entries", "count", "lower"),
    ("harness.runner.record_pickle_bytes", "bytes", "lower"),
    ("harness.pool.run_tasks_s", "s", "lower"),
    ("harness.pool.overhead_s", "s", "lower"),
    ("harness.pool.wait_calls", "count", "lower"),
    ("harness.pool.wait_calls_per_task", "ratio", "lower"),
    ("harness.pool.blocked_s", "s", "lower"),
    ("harness.pool.spawned", "count", "lower"),
    ("harness.pool.reused", "count", "higher"),
    ("harness.pool.repaired", "count", "lower"),
    ("harness.pool.retries", "count", "lower"),
    ("ioutil.fsyncs", "count", "lower"),
    ("ioutil.fsync_s", "s", "lower"),
)


#: Every per-layer metric of ``BENCHMARK.json``, in its order.  A
#: workload reports 0 for the metrics of layers it never enters (a sweep
#: has no engine events, a scenario run no pool).
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    PHASE_METRICS
    + tuple(
        row
        for layer in PROFILE_LAYERS
        for row in ((f"{layer}.self_s", "s", "lower"),
                    (f"{layer}.calls", "count", "lower"))
    )
    + SWEEP_METRICS
    + (("trace_overhead", "ratio", "lower"),
       ("profile_overhead", "ratio", "lower"))
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER_METRICS}


#: ``(path prefix under src/repro, layer)``, first match wins.  Every
#: ``*.py`` under ``src/repro`` must match a row (the smoke test walks
#: the tree), so a new package cannot silently land in ``other``.
#: ``sim/topology.py`` is the ``Network``/routing core that only
#: ``topo.build`` drives; the fabric packages are never on a simulation
#: op's path, so their few scenario-function frames are ``other``.
FILE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/link.py", "sim.link"),
    ("sim/queues.py", "sim.queues"),
    ("sim/node.py", "sim.node"),
    ("sim/packet.py", "sim.packet"),
    ("sim/topology.py", "topo"),
    ("sim/trace.py", "other"),
    ("sim/__init__.py", "other"),
    ("tcp/", "tcp"),
    ("sack/", "sack"),
    ("tfrc/", "tfrc"),
    ("core/", "core"),
    ("reliability/", "reliability"),
    ("qos/", "qos"),
    ("metrics/", "metrics"),
    ("topo/", "topo"),
    ("traffic/", "traffic"),
    ("fluid/", "fluid"),
    ("netem/", "netem"),
    ("apps/", "apps"),
    ("harness/", "other"),
    ("api/", "other"),
    ("campaign/", "other"),
    ("obs/", "other"),
    ("ioutil.py", "other"),
    ("__init__.py", "other"),
)


def layer_of_file(relpath: str) -> Optional[str]:
    """Layer of a source file given relative to ``src/repro`` (None: unmapped)."""
    for prefix, layer in FILE_LAYERS:
        if relpath == prefix or (prefix.endswith("/") and relpath.startswith(prefix)):
            return layer
    return None


Span = Dict[str, Any]


class Tracer:
    """Spans kept in memory; written out once when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[str] = None  # identifier shared by one op's spans
        self._stack: List[int] = []
        self._wrapped: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span; its parent is the span open when it starts."""
        record: Span = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[Span, Any], None]] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``on_result(span, result)`` may annotate the span (a count taken
        at the boundary).  :meth:`unwrap_all` restores the original.
        """
        original = owner.__dict__[attr]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result)
                return result

        self._wrapped.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def named(self, name: str, op: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s["name"] == name and (op is None or s["op"] == op)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def seconds(span: Span) -> float:
    return span["end"] - span["start"]


def duration(spans: Sequence[Span]) -> float:
    """Total inclusive time of ``spans``."""
    return sum(seconds(s) for s in spans)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its direct children cover.

    Children are clipped to the parent and overlapping children are
    counted once, so the self times of a tree add up to the root's
    duration whatever the children do.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(seconds(span) - covered)
    return out


def self_time_of(spans: Sequence[Span], name: str, op: Optional[str] = None) -> float:
    """Summed self time of every span called ``name`` (within ``op``)."""
    selfs = self_times(spans)
    return sum(
        selfs[i] for i, s in enumerate(spans)
        if s["name"] == name and (op is None or s["op"] == op)
    )


# ----------------------------------------------------------------------
# profile pass
# ----------------------------------------------------------------------
def _own_layer(filename: str, funcname: str, root: str) -> Optional[str]:
    """Layer a profiled function belongs to by itself; None = book to caller.

    ``root`` is the ``repro`` package directory with a trailing slash.
    """
    if filename == "~":  # a builtin: cProfile names the module in funcname
        if "_heapq" in funcname:
            return "sim.engine.heap"
        if "_random" in funcname:
            return "stdlib.random"
        return None
    if filename.startswith(root):
        return layer_of_file(filename[len(root):]) or "other"
    if filename.endswith("/random.py"):
        return "stdlib.random"
    return None


def profile_layers(
    fn: Callable[[], Any], root: str
) -> Tuple[Any, Dict[str, Dict[str, float]]]:
    """Run ``fn`` under cProfile; return its result and per-layer totals.

    ``{layer: {"share": fraction of profiled self time, "calls": n}}``
    for every layer in :data:`PROFILE_LAYERS`.  Self time of builtins
    and stdlib frames (``len``, ``min``, enum lookups, dataclass
    ``__init__``) is booked to the layer of the function that called
    them — one level up; whatever is still unplaced lands in ``other``.
    ``calls`` counts calls of the layer's own functions and repeats
    exactly from run to run.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    seconds = dict.fromkeys(PROFILE_LAYERS, 0.0)
    calls = dict.fromkeys(PROFILE_LAYERS, 0)
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = _own_layer(filename, funcname, root)
        if layer is not None:
            seconds[layer] += tottime
            calls[layer] += ncalls
            continue
        booked = 0.0
        for (cfile, _cline, cname), (_nc, _ccc, ctt, _cct) in callers.items():
            caller_layer = _own_layer(cfile, cname, root) or "other"
            seconds[caller_layer] += ctt
            booked += ctt
        seconds["other"] += tottime - booked  # root frames have no caller
    total = sum(seconds.values()) or 1.0
    return result, {
        layer: {"share": seconds[layer] / total, "calls": calls[layer]}
        for layer in PROFILE_LAYERS
    }
