"""A crash-tolerant, repairable worker pool for the sweep fabric.

``multiprocessing.Pool`` cannot give :func:`~repro.harness.runner.run_matrix`
the failure semantics a production sweep service needs: a worker that
dies hard (SIGKILL, ``os._exit``, OOM) strands its in-flight task
forever, a hung run cannot be reaped without terminating the whole
pool, and the parent never knows *which* worker holds *which* task.
:class:`ResilientPool` is a small, purpose-built replacement that does
exactly what the fabric needs and nothing more:

* one dedicated ``Process`` per worker with a private duplex ``Pipe`` —
  the parent always knows which task each worker is executing and when
  it was dispatched;
* **crash detection**: a worker death surfaces as pipe EOF; the task is
  reported as a ``crash`` outcome and the worker is respawned in place
  (*repair*), never discarding the rest of the warm pool;
* **per-task wall-clock deadlines**: a task past its deadline gets its
  worker killed and respawned, and reports a ``timeout`` outcome;
* **bounded retry with exponential backoff + deterministic jitter**:
  failed attempts (error/crash/timeout/invalid response) are re-queued
  until ``max_attempts`` is exhausted, then reported as terminal;
* **response validation**: every payload a worker returns is checked by
  a caller-supplied validator before it counts as success, so a
  corrupted record is a retryable failure, not a poisoned result;
* **clean abandonment**: if the caller aborts mid-section (strict-mode
  error, ``KeyboardInterrupt``), workers still holding tasks are killed
  and respawned so the pool's request/response protocol stays in sync —
  the pool itself remains warm and reusable.

The pool is deliberately *not* a general executor: tasks are submitted
in one batch per section (:meth:`run_tasks`), sections are serialized
per pool by an internal lock (concurrent same-key sweeps queue up), and
results are delivered through a callback in completion order, after
freed workers are refilled — the runner owns grid ordering.

The parent is event-driven: it sleeps in ``connection.wait`` until the
next thing it can act on — a worker reply, the earliest busy-worker
deadline, or a backoff wake-up with a worker idle to take it.

Import rule: no module-scope ``import hashlib`` / ``sqlite3`` /
``multiprocessing`` under ``src/repro`` — import where used; a process
that only simulates must not load them (``tests/test_import_order.py``).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ResilientPool", "TaskOutcome"]

#: Failure kinds a :class:`TaskOutcome` may carry (``None`` = success).
FAILURE_KINDS = ("error", "crash", "timeout", "invalid")


@dataclass
class TaskOutcome:
    """The terminal outcome of one task (success or exhausted retries)."""

    task_id: int
    payload: Any = None  # the worker's return value (success only)
    failure: Optional[str] = None  # one of FAILURE_KINDS, or None
    error_type: str = ""
    message: str = ""
    traceback_text: str = ""
    exception: Optional[BaseException] = None  # original, when picklable
    attempts: int = 1
    elapsed: float = 0.0  # wall clock across every attempt

    @property
    def ok(self) -> bool:
        return self.failure is None


def _worker_main(conn, fn) -> None:
    """Worker process loop: ``(task_id, task)`` in, ``(task_id, tag, ...)`` out.

    Replies ``(task_id, "ok", result)`` or ``(task_id, "error",
    (type_name, message, traceback, exception_or_None))``.  The
    exception object rides along when picklable so strict callers can
    re-raise the original; the string triple always survives.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:
            break
        task_id, task = msg
        try:
            result = fn(task)
            reply = (task_id, "ok", result)
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            info = (type(exc).__name__, str(exc), traceback.format_exc(), exc)
            reply = (task_id, "error", info)
        try:
            conn.send(reply)
        except Exception:
            if reply[1] == "error":
                # the exception itself would not pickle; strip it
                try:
                    conn.send((task_id, "error", reply[2][:3] + (None,)))
                    continue
                except Exception:
                    break
            break
    try:
        conn.close()
    except Exception:
        pass


@dataclass
class _Worker:
    proc: Any
    conn: Any
    task_id: Optional[int] = None  # in-flight task, if any
    task: Any = None
    attempt: int = 0
    started: float = 0.0
    deadline: float = float("inf")

    @property
    def busy(self) -> bool:
        return self.task_id is not None


@dataclass
class _TaskState:
    task: Any
    attempts: int = 0
    elapsed: float = 0.0
    last_failure: Tuple[str, str, str, str, Optional[BaseException]] = (
        "", "", "", "", None,
    )  # (kind, error_type, message, traceback, exception)


def _jitter(task_id: int, attempt: int) -> float:
    """Deterministic backoff jitter factor in [0.5, 1.5)."""
    import hashlib

    digest = hashlib.sha256(f"{task_id}:{attempt}".encode()).digest()
    return 0.5 + int.from_bytes(digest[:8], "big") / 2**64


class ResilientPool:
    """A fixed-size pool of repairable workers (see module docstring)."""

    def __init__(
        self,
        n_workers: int,
        fn: Callable[[Any], Any],
        on_repair: Optional[Callable[[], None]] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        import multiprocessing

        self._ctx = multiprocessing.get_context()
        self._fn = fn
        self._on_repair = on_repair
        self._lock = threading.Lock()  # one section at a time per pool
        self._closed = False
        self.repairs = 0  # workers respawned over this pool's lifetime
        self._workers: List[_Worker] = [
            self._spawn() for _ in range(n_workers)
        ]

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes (repairs change these)."""
        return [w.proc.pid for w in self._workers]

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._fn),
            daemon=True,
            name="repro-sweep-worker",
        )
        proc.start()
        child_conn.close()
        return _Worker(proc=proc, conn=parent_conn)

    def _retire(self, worker: _Worker) -> None:
        """Kill one worker process and close its pipe (no respawn)."""
        try:
            worker.proc.kill()
        except Exception:
            pass
        worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except Exception:
            pass

    def _repair(self, worker: _Worker) -> _Worker:
        """Replace a dead/wedged worker with a fresh one, in place."""
        self._retire(worker)
        fresh = self._spawn()
        self._workers[self._workers.index(worker)] = fresh
        self.repairs += 1
        if self._on_repair is not None:
            self._on_repair()
        return fresh

    def _ensure_alive(self, worker: _Worker) -> _Worker:
        if not worker.proc.is_alive():
            return self._repair(worker)
        return worker

    def shutdown(self) -> None:
        """Terminate every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                if not worker.busy and worker.proc.is_alive():
                    try:
                        worker.conn.send(None)  # polite: let it exit cleanly
                    except Exception:
                        pass
            for worker in self._workers:
                self._retire(worker)
            self._workers = []

    # ------------------------------------------------------------------
    # the parallel section
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[Tuple[int, Any]],
        *,
        on_outcome: Callable[[TaskOutcome], None],
        make_task: Optional[Callable[[Any, int], Any]] = None,
        validate: Optional[Callable[[Any, Any], bool]] = None,
        run_timeout: Optional[float] = None,
        max_attempts: int = 1,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        observer: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        """Execute ``tasks`` (``(task_id, task)`` pairs) to completion.

        ``make_task(task, attempt)`` builds the per-attempt message sent
        to the worker (defaults to the task itself); ``validate(task,
        payload)`` accepts or rejects a worker response (a rejection is
        an ``invalid`` failure and retries like any other).  Each
        terminal result — success or exhausted retries — is delivered
        to ``on_outcome`` exactly once, in completion order, after the
        workers freed in the same turn were sent their next task (so
        the caller's filing overlaps the next run) and before this
        method returns.  An exception from ``on_outcome`` (e.g. strict
        mode re-raising a run error) abandons the section: in-flight
        workers, the one refilled a moment earlier included, are killed
        and respawned so the pool stays protocol-clean and warm.

        ``observer``, when given, receives span-trace events for the
        section's scheduling decisions: ``{"event": "dispatched", "i",
        "attempt", "worker"}`` after each task is sent to a worker and
        ``{"event": "retry", "i", "attempt", "kind", "delay"}`` when a
        failed attempt is re-queued.  Terminal events (done/failed) are
        the caller's job — it already sees every ``TaskOutcome``.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            self._run_tasks_locked(
                tasks,
                on_outcome=on_outcome,
                make_task=make_task,
                validate=validate,
                run_timeout=run_timeout,
                max_attempts=max_attempts,
                backoff_base=backoff_base,
                backoff_cap=backoff_cap,
                observer=observer,
            )

    def _run_tasks_locked(
        self,
        tasks: Sequence[Tuple[int, Any]],
        *,
        on_outcome,
        make_task,
        validate,
        run_timeout,
        max_attempts,
        backoff_base,
        backoff_cap,
        observer=None,
    ) -> None:
        # the module, not the function: callers patch its ``wait``
        # attribute after the warm pool exists (perf/, tests/test_pool.py)
        import multiprocessing.connection

        states: Dict[int, _TaskState] = {
            task_id: _TaskState(task=task) for task_id, task in tasks
        }
        # ready heap entries: (not_before, tiebreak, task_id)
        tiebreak = itertools.count()
        ready: List[Tuple[float, int, int]] = [
            (0.0, next(tiebreak), task_id) for task_id, _ in tasks
        ]
        heapq.heapify(ready)
        remaining = len(states)  # tasks whose outcome is not yet filed
        finished: List[TaskOutcome] = []  # went terminal this turn
        try:
            now = time.monotonic()
            while True:
                self._dispatch_ready(
                    ready, states, now, make_task, run_timeout, observer
                )
                # filed only now, with the freed workers already refilled:
                # the caller's cache write + fsync overlap the next run
                for outcome in finished:
                    on_outcome(outcome)
                remaining -= len(finished)
                finished.clear()
                if remaining <= 0:
                    break
                busy = {w.conn: w for w in self._workers if w.busy}
                if not busy and not ready:  # pragma: no cover - defensive
                    raise RuntimeError("no busy workers and no ready tasks")
                ready_conns = multiprocessing.connection.wait(
                    list(busy), timeout=self._wait_timeout(ready, busy)
                )
                now = time.monotonic()
                for conn in ready_conns:
                    self._collect(
                        busy[conn], states, ready, tiebreak, now,
                        finished.append, validate, max_attempts,
                        backoff_base, backoff_cap, observer,
                    )
                # reap deadline overruns (hung runs)
                for worker in busy.values():
                    if worker.busy and now >= worker.deadline:
                        self._fail_attempt(
                            worker, states, ready, tiebreak, now,
                            finished.append, max_attempts,
                            backoff_base, backoff_cap, observer,
                            kind="timeout",
                            error_type="SweepTimeout",
                            message=(
                                f"run exceeded {run_timeout}s wall-clock "
                                "timeout; worker killed"
                            ),
                            repair=True,
                        )
        finally:
            # abandoned section (strict raise, KeyboardInterrupt): the
            # workers still holding tasks would otherwise reply into the
            # next section's protocol — kill and respawn just those.
            for worker in list(self._workers):
                if worker.busy:
                    self._repair(worker)

    def _dispatch_ready(self, ready, states, now, make_task, run_timeout,
                        observer=None):
        while ready and ready[0][0] <= now:
            idle = next((w for w in self._workers if not w.busy), None)
            if idle is None:
                return
            _, _, task_id = heapq.heappop(ready)
            state = states[task_id]
            state.attempts += 1
            worker = self._ensure_alive(idle)
            message = (
                make_task(state.task, state.attempts)
                if make_task is not None
                else state.task
            )
            try:
                worker.conn.send((task_id, message))
            except (OSError, EOFError):
                # broken pipe: repair once and retry on the fresh worker.
                # A message that will not pickle raises before a byte is
                # written and propagates with the healthy worker untouched.
                worker = self._repair(worker)
                worker.conn.send((task_id, message))
            worker.task_id = task_id
            worker.task = state.task
            worker.attempt = state.attempts
            worker.started = now
            worker.deadline = (
                now + run_timeout if run_timeout is not None else float("inf")
            )
            if observer is not None:
                observer({
                    "event": "dispatched",
                    "i": task_id,
                    "attempt": state.attempts,
                    "worker": worker.proc.pid,
                })

    def _wait_timeout(self, ready, busy) -> Optional[float]:
        """Seconds until the parent can act without a worker reply.

        That is the earliest busy-worker deadline, or the head of the
        ready heap when a worker is idle to take it (a backoff wake-up:
        ``_dispatch_ready`` just ran, so the head is not yet due).  Work
        queued behind busy workers bounds nothing — only a reply frees
        a worker — so the usual answer is ``None``: block.
        """
        bounds = [w.deadline for w in busy.values()]
        if ready and len(busy) < len(self._workers):
            bounds.append(ready[0][0])
        wake = min(bounds)  # never empty: no busy worker means an idle one
        if wake == float("inf"):
            return None
        return max(wake - time.monotonic(), 0.0)

    def _collect(
        self, worker, states, ready, tiebreak, now,
        on_outcome, validate, max_attempts, backoff_base, backoff_cap,
        observer=None,
    ) -> None:
        """Receive one worker reply; ``on_outcome`` gets a terminal result."""
        try:
            msg = worker.conn.recv()
        except Exception:
            # pipe EOF / unpicklable reply: the worker is gone or insane
            return self._fail_attempt(
                worker, states, ready, tiebreak, now,
                on_outcome, max_attempts, backoff_base, backoff_cap, observer,
                kind="crash",
                error_type="WorkerCrash",
                message="worker process died mid-run (killed, OOM or hard exit)",
                repair=True,
            )
        task_id = worker.task_id
        state = states[task_id]
        state.elapsed += now - worker.started
        reply_id, tag, payload = msg
        if reply_id != task_id:  # pragma: no cover - protocol desync guard
            return self._fail_attempt(
                worker, states, ready, tiebreak, now,
                on_outcome, max_attempts, backoff_base, backoff_cap, observer,
                kind="invalid",
                error_type="ProtocolError",
                message=f"worker answered task {reply_id}, expected {task_id}",
                repair=True,
            )
        if tag == "ok" and (
            validate is None or validate(state.task, payload)
        ):
            worker.task_id = None
            worker.task = None
            worker.deadline = float("inf")
            on_outcome(TaskOutcome(
                task_id=task_id,
                payload=payload,
                attempts=state.attempts,
                elapsed=state.elapsed,
            ))
            return
        if tag == "ok":  # failed validation: a corrupted response
            return self._fail_attempt(
                worker, states, ready, tiebreak, now,
                on_outcome, max_attempts, backoff_base, backoff_cap, observer,
                kind="invalid",
                error_type="CorruptRecordError",
                message=(
                    "worker returned a payload that failed response "
                    f"validation: {payload!r:.200}"
                ),
                repair=False,
            )
        error_type, message, tb_text, exc = payload
        self._fail_attempt(
            worker, states, ready, tiebreak, now,
            on_outcome, max_attempts, backoff_base, backoff_cap, observer,
            kind="error",
            error_type=error_type,
            message=message,
            traceback_text=tb_text,
            exception=exc,
            repair=False,
        )

    def _fail_attempt(
        self, worker, states, ready, tiebreak, now,
        on_outcome, max_attempts, backoff_base, backoff_cap, observer=None,
        *, kind, error_type, message, traceback_text="", exception=None,
        repair,
    ) -> None:
        """Re-queue a failed attempt, or give ``on_outcome`` its last one."""
        task_id = worker.task_id
        state = states[task_id]
        if kind in ("crash", "timeout"):
            state.elapsed += now - worker.started
        state.last_failure = (kind, error_type, message, traceback_text,
                              exception)
        # clear the (possibly about-to-be-retired) worker object first so
        # a stale reference in this event-loop iteration reads idle
        worker.task_id = None
        worker.task = None
        worker.deadline = float("inf")
        if repair:
            self._repair(worker)
        if state.attempts < max_attempts:
            delay = min(
                backoff_base * (2 ** (state.attempts - 1)),
                backoff_cap,
            ) * _jitter(task_id, state.attempts)
            heapq.heappush(ready, (now + delay, next(tiebreak), task_id))
            if observer is not None:
                observer({
                    "event": "retry",
                    "i": task_id,
                    "attempt": state.attempts,
                    "kind": kind,
                    "delay": round(delay, 6),
                })
            return
        on_outcome(TaskOutcome(
            task_id=task_id,
            failure=kind,
            error_type=error_type,
            message=message,
            traceback_text=traceback_text,
            exception=exception,
            attempts=state.attempts,
            elapsed=state.elapsed,
        ))
