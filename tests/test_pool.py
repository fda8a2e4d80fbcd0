"""Direct tests of :class:`repro.harness.pool.ResilientPool`.

The chaos suites drive the pool through ``run_matrix``; these drive the
class itself with small top-level functions, and pin how its parent
schedules: it blocks until a reply, a deadline or a backoff wake-up
(never polls), refills a freed worker before it files the finished
task, and tells a message that will not pickle from a broken pipe.
"""

from __future__ import annotations

import multiprocessing.connection
import pickle
import time

import pytest

from repro.harness.pool import ResilientPool, TaskOutcome, _jitter, _worker_main


def _work(task):
    """``(seconds, value)`` -> ``value`` after sleeping ``seconds``."""
    seconds, value = task
    time.sleep(seconds)
    return value


def _fail_first(message):
    """``(value, attempt)`` -> ``value``, but the first attempt raises."""
    value, attempt = message
    if attempt == 1:
        raise ValueError("first attempt fails")
    return value


@pytest.fixture
def make_pool():
    pools = []

    def make(n_workers, fn=_work):
        pools.append(ResilientPool(n_workers, fn))
        return pools[-1]

    yield make
    for pool in pools:
        pool.shutdown()


@pytest.fixture
def wakeups(monkeypatch):
    """Every ``connection.wait`` timeout and ``time.sleep`` the parent makes."""
    seen = []
    real_wait = multiprocessing.connection.wait
    real_sleep = time.sleep

    def wait(conns, timeout=None):
        seen.append(timeout)
        return real_wait(conns, timeout)

    def sleep(seconds):
        seen.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(multiprocessing.connection, "wait", wait)
    monkeypatch.setattr(time, "sleep", sleep)
    return seen


def _run(pool, tasks, **kwargs):
    outcomes = []
    pool.run_tasks(tasks, on_outcome=outcomes.append, **kwargs)
    return outcomes


def test_parent_blocks_instead_of_polling(make_pool, wakeups):
    pool = make_pool(2)
    tasks = [(i, (0.02, i * i)) for i in range(16)]
    outcomes = _run(pool, tasks)
    assert sorted((o.task_id, o.payload) for o in outcomes) == [
        (i, i * i) for i in range(16)
    ]
    assert len(wakeups) <= len(tasks) + 2
    assert all(timeout is None for timeout in wakeups)


def test_hung_task_is_reaped_at_its_deadline_with_work_queued(make_pool):
    pool = make_pool(2)
    # task 0 hangs on one worker while the other works through a queue
    # that outlasts the deadline: all workers busy, tasks still ready
    tasks = [(0, (30.0, "hung"))] + [(i, (0.1, i)) for i in range(1, 13)]
    filed = []
    start = time.monotonic()
    pool.run_tasks(
        tasks,
        on_outcome=lambda o: filed.append((o, time.monotonic() - start)),
        run_timeout=0.5,
    )
    order = [o.task_id for o, _ in filed]
    hung, reaped_at = filed[order.index(0)]
    assert hung.failure == "timeout" and hung.error_type == "SweepTimeout"
    assert 0.5 <= reaped_at <= 0.8
    assert len(order) - order.index(0) > 3  # work was still queued then
    assert pool.repairs == 1
    assert sorted((o.task_id, o.payload) for o, _ in filed if o.ok) == [
        (i, i) for i in range(1, 13)
    ]


def test_retry_waits_out_its_backoff_in_one_sleep(make_pool, wakeups):
    pool = make_pool(1, _fail_first)
    events = []
    outcomes = _run(
        pool, [(7, "seven")],
        make_task=lambda task, attempt: (task, attempt),
        max_attempts=2,
        backoff_base=0.4,
        observer=lambda ev: events.append((time.monotonic(), ev)),
    )
    assert [(o.payload, o.attempts) for o in outcomes] == [("seven", 2)]
    (_, first), (retry_t, retry), (again_t, again) = events
    assert (first["event"], retry["event"], again["event"]) == (
        "dispatched", "retry", "dispatched")
    assert retry["delay"] == pytest.approx(0.4 * _jitter(7, 1), abs=1e-6)
    waited = again_t - retry_t
    assert retry["delay"] - 0.005 <= waited <= retry["delay"] + 0.2
    assert len(wakeups) <= 3  # failed reply, backoff, reply


def test_worker_is_refilled_before_its_outcome_is_filed(make_pool):
    pool = make_pool(1)
    log = []
    pool.run_tasks(
        [(i, (0.01, i)) for i in range(5)],
        on_outcome=lambda o: log.append(("filed", o.task_id)),
        observer=lambda ev: log.append((ev["event"], ev["i"])),
    )
    # one worker: completion order is dispatch order, each outcome once
    assert [i for kind, i in log if kind == "filed"] == list(range(5))
    for k in range(4):
        assert log.index(("dispatched", k + 1)) < log.index(("filed", k))


def test_raising_on_outcome_abandons_cleanly(make_pool):
    pool = make_pool(2)

    def refuse(outcome: TaskOutcome) -> None:
        raise RuntimeError(f"strict: task {outcome.task_id}")

    with pytest.raises(RuntimeError, match="strict: task"):
        pool.run_tasks(
            [(i, (0.2, f"stale-{i}")) for i in range(6)], on_outcome=refuse
        )
    assert not any(w.busy for w in pool._workers)
    assert pool.repairs == 2  # both in flight, the refilled one included
    # same ids, new payloads: a stale reply would surface as a wrong value
    outcomes = _run(pool, [(i, (0.0, f"fresh-{i}")) for i in range(6)])
    assert sorted((o.task_id, o.payload) for o in outcomes) == [
        (i, f"fresh-{i}") for i in range(6)
    ]


def test_unpicklable_task_leaves_the_worker_alone(make_pool):
    pool = make_pool(2)
    pids = pool.worker_pids()
    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        _run(pool, [(0, (0.0, lambda: None))])
    assert pool.repairs == 0
    assert pool.worker_pids() == pids
    assert [o.payload for o in _run(pool, [(0, (0.0, "ok"))])] == ["ok"]


def test_broken_pipe_on_dispatch_is_repaired(make_pool):
    pool = make_pool(1)
    pool._workers[0].conn.close()  # the next send raises OSError
    assert [o.payload for o in _run(pool, [(0, (0.0, "ok"))])] == ["ok"]
    assert pool.repairs == 1


class _InterruptedReplyConn:
    """A worker's pipe end where SIGTERM lands while the reply is sent."""

    def __init__(self, messages):
        self.messages = list(messages)
        self.sent = []
        self.closed = False

    def recv(self):
        return self.messages.pop(0)

    def send(self, reply):
        self.sent.append(reply)
        raise KeyboardInterrupt("SIGTERM")

    def close(self):
        self.closed = True


def test_sigterm_while_replying_ends_the_worker_quietly():
    # the worker loop, run in-process: an interrupt raised by send()
    # leaves the loop and closes the pipe instead of escaping with a
    # traceback, as an interrupt raised by recv() already does
    conn = _InterruptedReplyConn([(0, (0.0, "ok")), (1, (0.0, "never"))])
    _worker_main(conn, _work)
    assert conn.sent == [(0, "ok", "ok")]
    assert conn.closed
