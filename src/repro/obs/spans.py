"""Structured span tracing for the sweep fabric.

Every sweep cell progresses through a small state machine::

    queued -> dispatched -> (retry(n) -> dispatched ...)* -> done | failed

That order holds for each cell's own events (same ``i``).  Order
*across* cells on one worker is not a contract: the pool refills a
freed worker before the runner files the cell it just finished, so a
worker's ``dispatched`` for its next cell may precede the ``done`` of
its previous one.  Consumers key on ``i`` (and take busy time from the
``wall`` a ``done`` event carries), never on adjacency.

The runner emits one flat dict per transition through its ``observer``
callback; :class:`SpanWriter` timestamps each event relative to the
sweep start, keeps it in memory, and — when given a path — appends it
as one JSON line so the trace lands next to the sweep manifest
(``<scenario>.spans.jsonl``).  The file is append-only and flushed per
event, so a killed sweep still leaves a valid prefix; :func:`read_spans`
tolerates a torn final line.

Event vocabulary (all events carry ``t``, seconds since sweep start):

``sweep``
    header — ``scenario``, ``cells``, ``started`` (epoch seconds)
``queued``
    ``i`` (cell index) — cache miss entering the work queue
``dispatched``
    ``i``, ``attempt``, ``worker`` (pid)
``retry``
    ``i``, ``attempt`` (the attempt that failed), ``kind``, ``delay``
``done``
    ``i``, ``wall``, ``cpu``, ``worker``, ``attempts``, ``cached``
``failed``
    ``i``, ``kind``, ``error``, ``attempts``, ``wall``

:func:`span_summary` folds an event list into per-sweep and per-worker
aggregates; :func:`format_span_summary` renders the ``--trace-summary``
table.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Any, Dict, IO, Iterable, List, Optional

from repro.ioutil import open_append, read_jsonl

__all__ = [
    "SpanWriter",
    "format_span_summary",
    "read_spans",
    "span_summary",
]


class SpanWriter:
    """Collects (and optionally persists) one sweep's span events.

    The writer is itself the observer callable: pass it wherever an
    ``observer=`` hook is accepted.  Events are kept in ``self.events``
    for in-process consumers (``ResultSet.spans``, the ``--trace-summary``
    table) and appended to ``path`` as JSONL when a path is given.
    """

    def __init__(self, path: Optional[str] = None,
                 header: Optional[Dict[str, Any]] = None,
                 *, append: bool = False):
        self.path = str(path) if path is not None else None
        self.events: List[Dict[str, Any]] = []
        self._t0 = perf_counter()
        self._fh: Optional[IO[str]] = None
        if self.path is not None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            # append=True continues an earlier invocation's journal
            # (campaign resume) instead of truncating it
            if append:
                self._fh = open_append(self.path)
            else:
                self._fh = open(self.path, "w", encoding="utf-8")
        if header is not None:
            self.emit({"event": "sweep", **header})

    def __call__(self, event: Dict[str, Any]) -> None:
        self.emit(event)

    def emit(self, event: Dict[str, Any]) -> None:
        entry = dict(event)
        entry["t"] = round(perf_counter() - self._t0, 6)
        self.events.append(entry)
        if self._fh is not None:
            self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError:
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_spans(path: str) -> List[Dict[str, Any]]:
    """Parse a span JSONL file, skipping a torn (partial) final line."""
    return read_jsonl(path)


def span_summary(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold a span event list into sweep- and worker-level aggregates.

    Returns a dict with ``scenario``, ``cells``, ``done``/``failed``/
    ``cached`` counts, ``retries``, wall-time stats over fresh ok cells
    (``wall_total``/``wall_mean``/``wall_max``), ``cpu_total``,
    ``duration`` (last event timestamp) and ``workers`` — a pid-keyed
    dict of ``{cells, busy, utilization}``.
    """
    scenario = None
    cells: Optional[int] = None
    done = failed = cached = retries = 0
    walls: List[float] = []
    cpu_total = 0.0
    duration = 0.0
    workers: Dict[int, Dict[str, float]] = {}
    for ev in events:
        duration = max(duration, ev.get("t", 0.0))
        kind = ev.get("event")
        if kind == "sweep":
            scenario = ev.get("scenario")
            cells = ev.get("cells")
        elif kind == "retry":
            retries += 1
        elif kind == "done":
            done += 1
            if ev.get("cached"):
                cached += 1
            else:
                walls.append(ev.get("wall", 0.0))
                cpu_total += ev.get("cpu", 0.0) or 0.0
                worker = ev.get("worker")
                if worker is not None:
                    slot = workers.setdefault(worker, {"cells": 0, "busy": 0.0})
                    slot["cells"] += 1
                    slot["busy"] += ev.get("wall", 0.0)
        elif kind == "failed":
            failed += 1
    for slot in workers.values():
        slot["utilization"] = slot["busy"] / duration if duration > 0 else 0.0
    return {
        "scenario": scenario,
        "cells": cells if cells is not None else done + failed,
        "done": done,
        "failed": failed,
        "cached": cached,
        "retries": retries,
        "wall_total": sum(walls),
        "wall_mean": sum(walls) / len(walls) if walls else 0.0,
        "wall_max": max(walls) if walls else 0.0,
        "cpu_total": cpu_total,
        "duration": duration,
        "workers": {pid: dict(slot) for pid, slot in sorted(workers.items())},
    }


def format_span_summary(events: Iterable[Dict[str, Any]]) -> str:
    """Render the ``--trace-summary`` table for one sweep's spans."""
    s = span_summary(events)
    lines = [
        f"trace summary: {s['scenario'] or '<sweep>'} "
        f"({s['cells']} cells, {s['duration']:.2f}s)",
        f"  done={s['done']} failed={s['failed']} cached={s['cached']} "
        f"retries={s['retries']}",
        f"  fresh cell wall: total={s['wall_total']:.3f}s "
        f"mean={s['wall_mean']:.3f}s max={s['wall_max']:.3f}s "
        f"cpu_total={s['cpu_total']:.3f}s",
    ]
    if s["workers"]:
        lines.append("  worker     cells  busy(s)  utilization")
        for pid, slot in s["workers"].items():
            lines.append(
                f"  {pid:<9} {slot['cells']:>6} {slot['busy']:>8.3f} "
                f"{slot['utilization']:>10.0%}"
            )
    return "\n".join(lines)
