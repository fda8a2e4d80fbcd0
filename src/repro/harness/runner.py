"""Fault-tolerant parallel sweep runner with an on-disk result cache.

:func:`run_matrix` fans a parameter grid for one registered scenario
out across worker processes, collects structured :class:`RunRecord`
results *in deterministic grid order* (regardless of worker completion
order), and memoizes every completed run on disk keyed by
``(scenario, params, seed, code_version)`` — re-running an unchanged
sweep is free.

The worker pool is **warm** (PR 4) and **self-repairing** (PR 7): one
process-global :class:`~repro.harness.pool.ResilientPool`, keyed by
``(worker count, code_version, scenario names)``, persists across
``run_matrix`` calls; a worker that crashes, hangs past the per-run
deadline or returns garbage is killed and respawned *in place* instead
of discarding the pool, so back-to-back sweeps keep their warm workers
even through failures.  :func:`warm_pool_stats` exposes
created/reused/transient/repaired counters (tests assert both reuse
and repair), and :func:`shutdown_warm_pool` tears the pool down (also
registered ``atexit``).  Records cross the IPC boundary with compact
positional pickling (``RunRecord.__reduce__``).

Failure semantics (PR 7):

* every run may be retried (``max_retries``) with exponential backoff
  plus deterministic jitter; in-process cells and worker processes
  share the retry rule (:func:`~repro.harness.pool.backoff`) and the
  step that files each terminal outcome, so both have the same retry
  semantics.  A per-run wall-clock ``run_timeout`` reaps hung runs
  (parallel sections only — a single in-process run cannot preempt
  itself, so a ``run_timeout`` forces pool execution even for
  ``workers=1``);
* with ``strict=True`` (the default, and the seed behaviour) the first
  terminal failure raises — the original exception where it survives
  pickling, :class:`SweepRunError` for crashes/timeouts;
* with ``strict=False`` a cell that exhausts its retries yields a
  :class:`RunRecord` whose result is a structured
  :class:`~repro.harness.result.RunFailure` (kind, error class,
  message, attempts, elapsed, traceback) — the sweep completes and
  the caller decides;
* failed records are **never cached**; successful records are
  byte-identical to a fault-free run (pinned by the chaos suite
  against the existing goldens);
* a corrupt cache entry (truncated or foreign pickle) is quarantined —
  renamed ``*.corrupt`` — and treated as a miss with one
  :class:`CorruptCacheWarning` per process, never an exception;
* deterministic chaos for all of the above comes from
  :mod:`repro.harness.faults` (``REPRO_FAULTS`` or the ``faults=``
  argument): plans travel with each task into the workers.

Sweep manifest and resume: when caching is enabled, every sweep
journals per-cell status (``ok``/``failed``) to a
``<scenario>.manifest.jsonl`` file next to the memo cache (header:
grid hash over the exact run list + code version), fsynced
line by line so even a SIGKILLed sweep leaves a valid journal.
``resume=True`` re-opens a matching manifest instead of starting a
fresh one — a header mismatch (changed grid or code) is an error
rather than a silent restart — an interrupted or partially failed sweep re-runs only the
missing/failed cells (completed cells load from the memo) and produces
the same records as an uninterrupted run.  ``KeyboardInterrupt`` and
(in the main thread) ``SIGTERM`` shut the parallel section down
cleanly: wedged workers are repaired, the manifest keeps every
completed cell, and the warm pool survives for the resuming call.

Determinism guarantees (unchanged from the seed):

* the grid expands in parameter-insertion order (``itertools.product``
  over the given value sequences), so the same grid always yields the
  same run list;
* every run's seed is explicit in its parameter dict (either from the
  grid/base or from the crossed ``seeds`` argument), and each scenario
  derives all its randomness from that seed — the same grid run twice,
  serially or with any worker count, produces identical records;
* records come back ordered by grid position, never by completion.

The cache key includes a hash of the ``repro`` package sources
(``code_version``), so editing any simulator code transparently
invalidates stale results.

Import rule: hashing goes through :func:`repro.ioutil.sha256` (the
interpreter's built-in SHA-256, so no process maps OpenSSL for it);
``multiprocessing`` is imported where it is used, never at module
scope under ``src/repro``, so a process that only simulates does not
load it (``tests/test_import_order.py``).
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import json
import os
import pickle
import signal
import threading
import time
import traceback as traceback_mod
import warnings
from dataclasses import dataclass, field
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
)

from repro.ioutil import Journal, atomic_write_bytes, sha256

from repro.harness import faults as faults_mod
from repro.harness.pool import ResilientPool, TaskOutcome, backoff
from repro.harness.registry import get_scenario
from repro.harness.result import RunFailure

__all__ = [
    "CorruptCacheWarning",
    "RunRecord",
    "SweepCache",
    "SweepManifest",
    "SweepRunError",
    "code_version",
    "expand_grid",
    "quarantine_count",
    "run_matrix",
    "shutdown_warm_pool",
    "spans_path",
    "warm_pool_stats",
]

class CorruptCacheWarning(UserWarning):
    """A corrupt sweep-cache entry was quarantined and treated as a miss."""


class SweepRunError(RuntimeError):
    """A sweep cell failed terminally in ``strict`` mode.

    Raised when the underlying failure has no original exception to
    re-raise (worker crash, wall-clock timeout, corrupted response) or
    the original did not survive pickling.
    """

    def __init__(self, scenario: str, params: Mapping[str, Any],
                 failure_kind: str, error: str, message: str, attempts: int):
        self.scenario = scenario
        self.params = dict(params)
        self.failure_kind = failure_kind
        self.error = error
        self.attempts = attempts
        super().__init__(
            f"{scenario} {self.params!r} failed terminally "
            f"({failure_kind}: {error}) after {attempts} attempt(s): {message}"
        )


@dataclass
class RunRecord:
    """One completed scenario run.

    ``elapsed``/``cached``/``worker_pid``/``attempts``/``cpu``/
    ``profile`` are execution metadata and do not participate in
    equality: two records are equal when the same scenario with the
    same parameters produced the same result.  A record whose result is
    a :class:`~repro.harness.result.RunFailure` represents a terminally
    failed cell (``record.ok`` is False).

    ``cpu`` is the successful attempt's ``time.process_time`` delta;
    ``profile`` carries the compact cProfile stats captured when
    profiling was requested (``REPRO_PROFILE=1`` /
    ``run_matrix(profile=True)``) and is stripped before a record is
    stored in the memo cache.
    """

    scenario: str
    params: Dict[str, Any]
    result: Any
    elapsed: float = field(compare=False, default=0.0)
    cached: bool = field(compare=False, default=False)
    worker_pid: int = field(compare=False, default=0)
    attempts: int = field(compare=False, default=1)
    cpu: float = field(compare=False, default=0.0)
    profile: Optional[Dict[Any, Any]] = field(
        compare=False, default=None, repr=False
    )

    @property
    def seed(self) -> Optional[int]:
        """The run's seed, when one was part of its parameters."""
        return self.params.get("seed")

    @property
    def ok(self) -> bool:
        """False when this cell failed terminally (result is a RunFailure)."""
        return not isinstance(self.result, RunFailure)

    def __reduce__(self):
        # positional tuple instead of the default class+__dict__ form:
        # no field-name strings per record, so results ship back from
        # workers (and into the caches) with a smaller, faster pickle
        return (
            _rebuild_run_record,
            (
                self.scenario,
                self.params,
                self.result,
                self.elapsed,
                self.cached,
                self.worker_pid,
                self.attempts,
                self.cpu,
                self.profile,
            ),
        )


def _rebuild_run_record(
    scenario: str,
    params: Dict[str, Any],
    result: Any,
    elapsed: float,
    cached: bool,
    worker_pid: int,
    attempts: int = 1,
    cpu: float = 0.0,
    profile: Optional[Dict[Any, Any]] = None,
) -> RunRecord:
    """Unpickle helper for :meth:`RunRecord.__reduce__` (top-level).

    The trailing arguments default so pickles written by older code
    versions still load (the ``code_version`` cache key retires them
    anyway, but a partially upgraded fleet must not hard-fail).
    """
    return RunRecord(
        scenario, params, result, elapsed, cached, worker_pid, attempts,
        cpu, profile,
    )


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------
def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Expand ``{param: values}`` into the full cross product.

    Points are ordered with the *first* grid key varying slowest — the
    natural reading order of nested for-loops over the grid — and the
    expansion is deterministic for a given grid.
    """
    if not grid:
        return [{}]
    keys = list(grid)
    value_lists = [list(grid[k]) for k in keys]
    for key, values in zip(keys, value_lists):
        if not values:
            raise ValueError(f"grid parameter {key!r} has no values")
    return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]


# ----------------------------------------------------------------------
# code-version hashing and the on-disk cache
# ----------------------------------------------------------------------
_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hex digest of every ``repro`` source file (cache-key component).

    Computed once per process; editing any file under ``src/repro``
    changes the digest and thereby invalidates all cached results.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def cache_key(scenario: str, params: Mapping[str, Any]) -> str:
    """The canonical memo key: sha256 of the JSON-canonicalized contract.

    Parameters are JSON-canonicalized (sorted keys) before hashing so
    dict ordering never matters; :class:`SweepCache` names its files by it.
    """
    payload = json.dumps(
        {
            "scenario": scenario,
            "params": params,
            # the seed also lives in params; it is keyed explicitly
            # as well so the cache contract (scenario, params, seed,
            # code_version) holds even for scenarios without one
            "seed": params.get("seed"),
            "code_version": code_version(),
        },
        sort_keys=True,
        default=repr,
    )
    return sha256(payload.encode()).hexdigest()


#: One :class:`CorruptCacheWarning` per process, not one per entry: a
#: wiped cache directory would otherwise emit hundreds.
_QUARANTINE_WARNED = False

#: Total corrupt cache entries quarantined this process (every
#: quarantine counts, even though only the first one warns) — the
#: metrics plane harvests this at sweep end.
_QUARANTINE_COUNT = 0


def quarantine_count() -> int:
    """Corrupt cache entries quarantined by this process so far."""
    return _QUARANTINE_COUNT


def _warn_quarantine(what: str, exc: Exception) -> None:
    global _QUARANTINE_WARNED, _QUARANTINE_COUNT
    _QUARANTINE_COUNT += 1
    if _QUARANTINE_WARNED:
        return
    _QUARANTINE_WARNED = True
    warnings.warn(
        f"corrupt sweep-cache entry quarantined ({what}: "
        f"{type(exc).__name__}: {exc}); treated as a cache miss — further "
        "quarantines this process will be silent",
        CorruptCacheWarning,
        stacklevel=4,
    )


class SweepCache:
    """Pickle-per-run result store under one directory.

    Filenames are ``<scenario>-<sha256 of (scenario, params, seed,
    code_version)>.pkl`` (see :func:`cache_key`).  A corrupt entry is
    quarantined in place (renamed ``<name>.pkl.corrupt``) and treated
    as a miss, with one :class:`CorruptCacheWarning` per process.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def key(self, scenario: str, params: Mapping[str, Any]) -> str:
        return cache_key(scenario, params)

    def _path(self, scenario: str, params: Mapping[str, Any]) -> Path:
        return self.directory / f"{scenario}-{self.key(scenario, params)}.pkl"

    def _quarantine(self, path: Path, exc: Exception) -> None:
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            return  # cannot move it aside; stay a silent miss
        _warn_quarantine(str(path), exc)

    def load(self, scenario: str, params: Mapping[str, Any]) -> Optional[RunRecord]:
        path = self._path(scenario, params)
        try:
            with path.open("rb") as fh:
                record = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # garbage bytes can raise far more than UnpicklingError
            # (OverflowError from a bogus frame length, MemoryError, ...);
            # move the entry aside so it never trips another sweep
            self._quarantine(path, exc)
            return None
        if not isinstance(record, RunRecord):
            self._quarantine(path, TypeError(
                f"cache entry holds {type(record).__name__}, not RunRecord"
            ))
            return None
        record.cached = True
        return record

    def store(self, record: RunRecord) -> None:
        path = self._path(record.scenario, record.params)
        # atomic even with concurrent sweeps; fsync=False because a
        # power-cut-lost entry is merely a cache miss, and the memo is
        # written once per cell on the sweep hot path
        atomic_write_bytes(path, pickle.dumps(record), fsync=False)


# ----------------------------------------------------------------------
# sweep manifest: the journaled per-cell status ledger
# ----------------------------------------------------------------------
class SweepManifest:
    """A journaled per-cell status ledger for one sweep invocation.

    One JSONL file next to the memo cache: a header line pinning the
    sweep identity (scenario, grid hash over the exact run-parameter
    list and ``code_version``, cell count), then one line per completed
    cell — ``{"i": index, "status": "ok"|"failed", ...}`` — appended
    and fsynced as cells finish (a :class:`~repro.ioutil.Journal` with
    ``fsync="entry"``), so even a hard-killed sweep leaves a valid
    journal of everything that completed.

    ``resume=True`` re-opens an existing journal whose header matches
    and appends to it; a header mismatch (different grid, edited code)
    is an error rather than a silent restart.  Without ``resume`` the
    journal is started fresh.  Resume decides what to re-run from the
    memo cache, not from these lines: the journal is for reading.
    """

    VERSION = 1

    def __init__(self, path: Path, scenario: str, grid_hash: str,
                 n_cells: int, *, resume: bool = False):
        self.path = Path(path)
        self.scenario = scenario
        self.grid_hash = grid_hash
        self.n_cells = n_cells
        self._journal = Journal(
            self.path,
            {
                "manifest": self.VERSION,
                "scenario": scenario,
                "grid_hash": grid_hash,
                "cells": n_cells,
            },
            fsync="entry",
            resume=resume,
            on_resume=self._check_header,
        )

    @staticmethod
    def grid_hash_of(scenario: str, run_params: Sequence[Mapping[str, Any]]) -> str:
        """Identity of one sweep: scenario + exact run list + code version."""
        payload = json.dumps(
            [scenario, list(run_params), code_version()],
            sort_keys=True,
            default=repr,
        )
        return sha256(payload.encode()).hexdigest()[:16]

    def _check_header(self, entries: List[Dict[str, Any]]) -> None:
        header = next((e for e in entries if "manifest" in e), {})
        mismatch = (
            header.get("scenario") != self.scenario
            or header.get("grid_hash") != self.grid_hash
            or header.get("cells") != self.n_cells
        )
        if mismatch:
            raise ValueError(
                f"cannot resume: manifest {self.path} was written for "
                f"scenario {header.get('scenario')!r} grid "
                f"{header.get('grid_hash')!r} ({header.get('cells')} cells), "
                f"but this sweep is {self.scenario!r} grid "
                f"{self.grid_hash!r} ({self.n_cells} cells) — the grid or "
                "the code changed; drop --resume to start fresh"
            )

    def record(self, index: int, status: str, error: str = "") -> None:
        """Journal one completed cell (fsynced before this returns)."""
        entry: Dict[str, Any] = {"i": index, "status": status}
        if error:
            entry["error"] = error
        self._journal.append(entry)

    def close(self) -> None:
        self._journal.close()


def _manifest_path(cache_dir: Path, scenario: str) -> Path:
    """Where the manifest for one sweep lives (next to its memo cache).

    One journal per scenario per cache location — deliberately *not*
    keyed by grid hash, so ``resume=True`` can find the previous
    sweep's journal and *validate* its header against this sweep's
    grid hash (a silent fresh start on a changed grid would defeat the
    point of asking to resume).
    """
    return Path(cache_dir) / f"{scenario}.manifest.jsonl"


def spans_path(cache_dir: Path, scenario: str) -> Path:
    """Where a traced sweep's span JSONL lives (next to its manifest)."""
    return Path(cache_dir) / f"{scenario}.spans.jsonl"


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------
#: The process-global warm pool:
#: ``{"key": (n_workers, code_version, scenario names),
#: "pool": ResilientPool, "leases": int}``.  ``leases`` counts callers
#: currently consuming the pool, so a concurrent ``run_matrix`` with a
#: different key never terminates a pool another thread is using — it
#: gets a transient per-call pool instead (the pre-warm-pool behaviour).
_WARM_POOL: Optional[Dict[str, Any]] = None
_WARM_LOCK = threading.Lock()
_WARM_POOL_STATS = {"created": 0, "reused": 0, "transient": 0, "repaired": 0}


def warm_pool_stats() -> Dict[str, int]:
    """Warm-pool lifecycle counters.

    ``created``: warm pools forked; ``reused``: calls served by an
    existing warm pool (the observable contract the warm-worker tests
    pin); ``transient``: per-call pools handed to concurrent callers
    whose key mismatched a warm pool that was in use; ``repaired``:
    individual workers respawned in place after a crash, hang or
    abandoned section — repairs keep the pool warm where the seed
    runner discarded it.
    """
    return dict(_WARM_POOL_STATS)


def _count_repair() -> None:
    _WARM_POOL_STATS["repaired"] += 1


def shutdown_warm_pool() -> None:
    """Terminate and forget the warm pool (idempotent; ``atexit`` hook)."""
    global _WARM_POOL
    with _WARM_LOCK:
        state, _WARM_POOL = _WARM_POOL, None
    if state is not None:
        state["pool"].shutdown()


atexit.register(shutdown_warm_pool)


def _lease_pool(n_workers: int) -> Tuple[Dict[str, Any], bool]:
    """Lease a pool for one parallel section: ``(state, transient)``.

    The warm pool is keyed by ``(n_workers, code_version(), registered
    scenario names)``: a different worker count, an edited ``repro``
    source tree or a scenario registered since the pool was forked
    retires the old pool — workers carry the interpreter image of their
    fork moment, and a stale image must never serve runs for new code
    or resolve a scenario it has never seen.  A retirement only happens
    when no other caller holds a lease; otherwise this call gets a
    ``transient`` pool that :func:`_release_pool` tears down.

    The pool is deliberately sized to ``n_workers`` even when the
    current miss set is smaller: a task-count-dependent size would
    change the key between calls and defeat the warm reuse that is the
    point of keeping the pool alive.
    """
    from repro.harness.registry import list_scenarios

    global _WARM_POOL
    key = (
        n_workers,
        code_version(),
        tuple(spec.name for spec in list_scenarios()),
    )
    with _WARM_LOCK:
        state = _WARM_POOL
        if state is not None and state["key"] == key:
            state["leases"] += 1
            _WARM_POOL_STATS["reused"] += 1
            return state, False
        fresh = {
            "key": key,
            "pool": ResilientPool(n_workers, _execute_run,
                                  on_repair=_count_repair),
            "leases": 1,
        }
        if state is not None and state["leases"] > 0:
            # another thread is mid-sweep on a differently-keyed pool:
            # never terminate it from under them
            _WARM_POOL_STATS["transient"] += 1
            return fresh, True
        _WARM_POOL, retired = fresh, state
        _WARM_POOL_STATS["created"] += 1
    if retired is not None:
        retired["pool"].shutdown()
    return fresh, False


def _release_pool(state: Dict[str, Any], transient: bool) -> None:
    """Return a leased pool.

    A transient pool dies with its section.  A warm pool survives even
    a failed or interrupted section — the
    :class:`~repro.harness.pool.ResilientPool` has already repaired any
    worker left wedged — unless a concurrent retirement orphaned it
    while this caller held the last lease.
    """
    global _WARM_POOL
    if transient:
        state["pool"].shutdown()
        return
    with _WARM_LOCK:
        state["leases"] -= 1
        # terminate once a pool no longer registered as THE warm pool
        # (orphaned by a concurrent retirement) is fully released
        terminate = state["leases"] <= 0 and _WARM_POOL is not state
    if terminate:
        state["pool"].shutdown()


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _execute_run(task: Tuple[str, Dict[str, Any], int, Any, bool]) -> Any:
    """Worker entry point: run one scenario attempt.

    ``task`` is ``(scenario, params, attempt, fault_plan, profile)``.
    Top-level (picklable) and self-contained: it re-resolves the
    scenario by name so it works identically in-process, in forked
    workers and in spawned workers (where the registry starts empty).
    The fault plan and the profile flag ride with the task — never read
    from the worker's environment — so a warm pool forked under one
    configuration can serve a sweep under another.  Returns the
    :class:`RunRecord`, or the injected
    :class:`~repro.harness.faults.CorruptRecord` garbage that response
    validation must reject.
    """
    scenario, params, attempt, plan, profile = task
    if plan is not None:
        corrupt = plan.apply(scenario, params, attempt)
        if corrupt is not None:
            return corrupt
    spec = get_scenario(scenario)
    kwargs = spec.bind(params)
    start = time.perf_counter()
    cpu_start = time.process_time()
    stats = None
    if profile:
        from repro.obs.profiling import profile_call

        result, stats = profile_call(spec.fn, **kwargs)
    else:
        result = spec.fn(**kwargs)
    return RunRecord(
        scenario=scenario,
        params=params,
        result=result,
        elapsed=time.perf_counter() - start,
        worker_pid=os.getpid(),
        attempts=attempt,
        cpu=time.process_time() - cpu_start,
        profile=stats,
    )


def _valid_response(task: Tuple[str, Dict[str, Any]], payload: Any) -> bool:
    """Response validation: the payload must be the record we asked for."""
    return (
        isinstance(payload, RunRecord)
        and payload.scenario == task[0]
        and payload.params == task[1]
    )


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Convert SIGTERM into KeyboardInterrupt for one sweep (main thread).

    Gives a terminated sweep the same clean shutdown path as Ctrl-C:
    wedged workers are repaired, the manifest journal stays valid, and
    a follow-up ``--resume`` completes the remaining cells.  A no-op
    off the main thread (signal handlers cannot be installed there).
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _handler(signum, frame):  # noqa: ARG001 - signal signature
        raise KeyboardInterrupt("SIGTERM")
    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # exotic embedding; run unprotected
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def run_matrix(
    scenario: str,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    *,
    base: Optional[Mapping[str, Any]] = None,
    seeds: Optional[Iterable[int]] = None,
    workers: Optional[int] = 1,
    cache_dir: Optional[Path] = None,
    progress: Optional[Callable[[RunRecord], None]] = None,
    max_retries: int = 0,
    run_timeout: Optional[float] = None,
    strict: bool = True,
    resume: bool = False,
    faults: Optional[faults_mod.FaultPlan] = None,
    observer: Optional[Callable[[Dict[str, Any]], None]] = None,
    profile: bool = False,
) -> List[RunRecord]:
    """Run ``scenario`` over a parameter grid, optionally in parallel.

    Parameters
    ----------
    scenario:
        Registered scenario name (see :func:`repro.harness.registry.list_scenarios`).
    grid:
        ``{param: sequence of values}`` to cross; defaults to the
        scenario's registered default sweep grid.
    base:
        Fixed keyword overrides applied to every grid point (a grid
        value wins over a ``base`` value for the same key).
    seeds:
        Optional seeds crossed with every grid point (fastest-varying
        axis).  Each becomes the run's explicit ``seed`` parameter —
        the deterministic per-run seed the cache key and the scenario's
        random streams derive from.
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``1`` (the
        default) runs in-process with no pool overhead; less than 1 is
        a ``ValueError``.  Results are identical for every worker count.
    cache_dir:
        Directory for the pickle-per-run memo (:class:`SweepCache`)
        and the sweep's manifest; ``None`` disables both.
    progress:
        Optional callback invoked with each finished/loaded record
        (including terminal-failure records when ``strict=False``).
    max_retries:
        Extra attempts per run after the first (so a cell executes at
        most ``max_retries + 1`` times) for crashed, timed-out, faulted
        or corrupted runs, with exponential backoff and deterministic
        jitter.  ``0`` (the default) never retries.
    run_timeout:
        Per-run wall-clock deadline in seconds.  A run past it has its
        worker killed (and repaired) and counts as a failed attempt.
        Enforced by the parallel section: setting it forces pool
        execution even for ``workers=1``, because an in-process run
        cannot preempt itself.
    strict:
        ``True`` (the default, the seed behaviour): the first terminal
        failure raises — the original exception where it survives
        pickling, :class:`SweepRunError` otherwise.  ``False``: a
        terminally failed cell becomes a :class:`RunRecord` carrying a
        :class:`~repro.harness.result.RunFailure` and the sweep
        completes.
    resume:
        Re-open this sweep's manifest journal instead of starting it
        fresh, re-running only missing/failed cells (completed cells
        load from the memo cache).  Requires caching; a manifest whose
        grid hash does not match is an error.
    faults:
        Explicit :class:`~repro.harness.faults.FaultPlan` for chaos
        testing; defaults to the ``REPRO_FAULTS`` environment hook.
        The plan travels with each task into the workers.
    observer:
        Optional span-trace callback (see :mod:`repro.obs.spans`)
        receiving flat event dicts for every cell transition — queued,
        dispatched, retry, done, failed.  ``None`` (the default) keeps
        the sweep structurally unobserved: no event construction
        happens anywhere.
    profile:
        Wrap every fresh cell's scenario function in cProfile and
        attach the compact stats to ``RunRecord.profile``.  Defaults to
        the ``REPRO_PROFILE`` environment hook; the resolved flag
        travels with each task, never through worker environments.

    Returns
    -------
    list of RunRecord, in deterministic grid order.
    """
    spec = get_scenario(scenario)
    if grid is None:
        grid = spec.default_grid
    points = expand_grid(grid)
    if seeds is not None:
        if "seed" in grid:
            raise ValueError(
                "the grid already sweeps 'seed'; drop the seeds argument "
                "or the grid axis"
            )
        seed_list = list(seeds)  # tolerate one-shot iterables
        points = [
            {**point, "seed": seed} for point in points for seed in seed_list
        ]
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1 or None, got {workers}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if run_timeout is not None and run_timeout <= 0:
        raise ValueError(f"run_timeout must be > 0 seconds, got {run_timeout}")
    run_params: List[Dict[str, Any]] = []
    for point in points:
        params = {**(base or {}), **point}
        spec.bind(params)  # validate names early, before any work
        run_params.append(params)

    if faults is None:
        faults = faults_mod.plan_from_env()
    if not profile:
        from repro.obs.profiling import profiling_requested

        profile = profiling_requested()

    cache = SweepCache(cache_dir) if cache_dir is not None else None
    if resume and cache is None:
        raise ValueError(
            "resume=True needs the memo cache (it is what completed cells "
            "are restored from); do not disable caching for a resumed sweep"
        )
    manifest: Optional[SweepManifest] = None
    if cache is not None:
        grid_hash = SweepManifest.grid_hash_of(scenario, run_params)
        manifest = SweepManifest(
            _manifest_path(cache_dir, scenario),
            scenario,
            grid_hash,
            len(run_params),
            resume=resume,
        )

    records: List[Optional[RunRecord]] = [None] * len(run_params)

    def file_cell(index: int, record: Optional[RunRecord],
                  failure: Optional[TaskOutcome] = None) -> None:
        """File a cell's record, or its last failure: for cache hits and
        for both executors."""
        ok = failure is None
        if not ok:
            record = RunRecord(
                scenario=scenario,
                params=run_params[index],
                result=RunFailure(
                    failure_kind=failure.failure or "error",
                    error=failure.error_type,
                    message=failure.message,
                    attempts=failure.attempts,
                    elapsed=failure.elapsed,
                    traceback_lines=tuple(failure.traceback_text.splitlines()),
                ),
                elapsed=failure.elapsed,
                attempts=failure.attempts,
            )
        records[index] = record
        if ok and cache is not None and not record.cached:
            # terminal failures are never cached: a resumed or re-run
            # sweep must retry them, and the memo must only ever replay
            # successes.  profile payloads are execution metadata of
            # THIS run — strip them so a cache hit never replays a
            # stale profile
            stats = record.profile
            if stats is not None:
                record.profile = None
            cache.store(record)
            if stats is not None:
                record.profile = stats
        if manifest is not None:
            if ok:
                manifest.record(index, "ok")
            else:
                manifest.record(index, "failed", error=failure.error_type)
        if not ok and strict:
            # the original exception where it survived pickling
            if failure.exception is not None:
                raise failure.exception
            raise SweepRunError(
                scenario, record.params, record.result.failure_kind,
                failure.error_type, failure.message, failure.attempts,
            )
        if observer is not None:
            if ok:
                observer({
                    "event": "done",
                    "i": index,
                    "wall": round(record.elapsed, 6),
                    "cpu": round(record.cpu, 6),
                    "worker": record.worker_pid,
                    "attempts": record.attempts,
                    "cached": record.cached,
                })
            else:
                observer({
                    "event": "failed",
                    "i": index,
                    "kind": record.result.failure_kind,
                    "error": record.result.error,
                    "attempts": record.attempts,
                    "wall": round(record.elapsed, 6),
                })
        if progress is not None:
            progress(record)

    try:
        with _sigterm_as_interrupt():
            misses: List[int] = []
            for i, params in enumerate(run_params):
                cached = cache.load(scenario, params) if cache is not None else None
                if cached is not None:
                    file_cell(i, cached)
                else:
                    misses.append(i)
            if observer is not None:
                for i in misses:
                    observer({"event": "queued", "i": i})
            n_workers = workers if workers is not None else (os.cpu_count() or 1)
            # a wall-clock deadline needs a killable worker process, so it
            # forces pool execution even for a single worker / single task
            in_process = run_timeout is None and (n_workers <= 1 or len(misses) == 1)
            if misses and in_process:
                _run_in_process(
                    scenario, run_params, misses, file_cell,
                    max_attempts=max_retries + 1, faults=faults,
                    profile=profile, observer=observer,
                )
            elif misses:
                _run_in_pool(
                    scenario, run_params, misses, file_cell, n_workers,
                    max_attempts=max_retries + 1, run_timeout=run_timeout,
                    faults=faults, profile=profile, observer=observer,
                )
    finally:
        if manifest is not None:
            manifest.close()
    assert all(r is not None for r in records)
    return records  # type: ignore[return-value]


def _run_in_pool(
    scenario: str,
    run_params: List[Dict[str, Any]],
    misses: List[int],
    file_cell: Callable[..., None],
    n_workers: int,
    *,
    max_attempts: int,
    run_timeout: Optional[float],
    faults,
    profile: bool,
    observer=None,
) -> None:
    """The pool executor: each miss on a leased warm worker pool."""
    state, transient = _lease_pool(n_workers)
    try:
        state["pool"].run_tasks(
            [(i, (scenario, run_params[i])) for i in misses],
            on_outcome=lambda outcome: file_cell(
                outcome.task_id, outcome.payload,
                None if outcome.ok else outcome,
            ),
            make_task=lambda task, attempt: (
                task[0], task[1], attempt, faults, profile
            ),
            validate=_valid_response,
            run_timeout=run_timeout,
            max_attempts=max_attempts,
            observer=observer,
        )
    finally:
        _release_pool(state, transient)


def _run_in_process(
    scenario: str,
    run_params: List[Dict[str, Any]],
    misses: List[int],
    file_cell: Callable[..., None],
    *,
    max_attempts: int,
    faults,
    profile: bool,
    observer=None,
) -> None:
    """The in-process executor: the pool's attempt loop, minus the pool.

    Failed attempts wait the pool's :func:`~repro.harness.pool.backoff`;
    ``file_cell`` runs outside the attempt's ``try``, so a filing error
    propagates after one run.  No deadlines, and an ``exit`` fault ends
    this process: crash and hang isolation is what workers buy.
    """
    for index in misses:
        params = run_params[index]
        elapsed = 0.0
        attempt = 0
        while True:
            attempt += 1
            if observer is not None:
                observer({
                    "event": "dispatched",
                    "i": index,
                    "attempt": attempt,
                    "worker": os.getpid(),
                })
            started = time.perf_counter()
            try:
                payload = _execute_run(
                    (scenario, params, attempt, faults, profile)
                )
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # noqa: BLE001 - classified here
                failure = TaskOutcome(
                    task_id=index,
                    failure="error",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback_text=traceback_mod.format_exc(),
                    exception=exc,
                )
            else:
                if _valid_response((scenario, params), payload):
                    file_cell(index, payload)
                    break
                failure = TaskOutcome(
                    task_id=index,
                    failure="invalid",
                    error_type="CorruptRecordError",
                    message=(
                        "run returned a payload that failed response "
                        f"validation: {payload!r:.200}"
                    ),
                )
            elapsed += time.perf_counter() - started
            if attempt >= max_attempts:
                failure.attempts = attempt
                failure.elapsed = elapsed
                file_cell(index, None, failure)
                break
            time.sleep(backoff(index, attempt, failure.failure, observer))
