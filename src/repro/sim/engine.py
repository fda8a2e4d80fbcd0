"""Discrete-event simulation engine.

The engine is a classic calendar of ``(time, tie-break, callback)``
entries kept in a binary heap.  It is deliberately small and
deterministic:

* events scheduled for the same instant fire in scheduling order;
* every source of randomness is a named :class:`random.Random` stream
  derived from the simulator seed, so adding a new randomized component
  never perturbs the draws seen by existing components;
* cancellation is O(1) (events are tombstoned, not removed).

Typical use::

    sim = Simulator(seed=1)
    sim.schedule(0.5, lambda: print("hello at", sim.now))
    sim.run(until=10.0)

Fast-path invariants (future PRs must not break these; the golden tests
in ``tests/test_determinism_golden.py`` pin the exact event traces and
``tests/test_engine.py`` checks the run loop against a sorted reference
list):

* **Heap entry shape.** ``Simulator._heap`` holds plain
  ``(time, seq, fn, args, handle)`` tuples.  ``seq`` is unique per
  simulator, so a sift compares at most the float and the int — at C
  level — and never reaches ``fn``.  The run loop fires ``fn(*args)``
  straight from the tuple.
* **Who may read index 4.** ``handle`` is the :class:`Event` returned
  by :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` (or
  re-armed by :class:`Timer`), and ``None`` for
  :meth:`Simulator.schedule_pooled`, whose callers never cancel.  Only
  the pop sites (``run`` and ``step``) look at it, for two things:
  a ``cancelled`` handle makes the entry a tombstone to drop, and a
  live one is marked ``_popped`` before its callback runs.  An entry
  without a handle costs no object and no bookkeeping at all.
* **Ordering contract.** The pushed key is exactly ``(time, seq)``
  with ``seq`` a monotonically increasing per-simulator counter —
  identical to the seed engine's ``Event.__lt__``; every scheduling
  call (``schedule``, ``schedule_at``, ``schedule_pooled``,
  ``Timer.restart``) consumes exactly one ``seq``, so event firing
  order (and therefore every downstream random draw) is bit-identical.
* **O(1) schedule fast path.** :meth:`Simulator.schedule` pushes
  directly (no ``schedule_at`` indirection, no absolute-time
  re-validation — ``delay >= 0`` already implies ``time >= now``).
* **One run loop.** :meth:`Simulator.run` binds the heap and heappop
  to locals and serves ``until`` / ``max_events`` / neither with the
  same loop (an absent bound is an unreachable one); ``self.now`` is
  written back on every event because callbacks read it.
* **Lazy deletion and ``pending``.** Cancelled events stay in the heap
  as tombstones and are discarded at pop time.  ``pending`` is
  ``len(heap) - tombstones``: :meth:`Event.cancel` counts a tombstone
  when the event is still in the heap (``not _popped``), popping a
  cancelled entry uncounts it, and nothing else moves the count — so
  scheduling and firing do no counter work.
* **Timer re-arm without allocating.** After a :class:`Timer` fires,
  the popped ``Event`` is kept as a spare and re-initialized on the
  next ``restart`` (fresh ``time``/``seq``, flags cleared) instead of
  allocating.  A restart *while armed* tombstones the pending event in
  the heap and then re-arms the spare if one exists (allocating only
  when it does not) — the spare is always an already-fired object, so
  this never touches the tombstone.  The invariant future PRs must
  keep: a tombstoned (cancelled-in-heap) event object is never
  re-armed, or it would fire twice when its stale heap entry pops.
  It is the only object reuse in the engine.
"""

from __future__ import annotations

import heapq
import random
import sys
from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop
_event_new = object.__new__
_INF = float("inf")
_NO_LIMIT = sys.maxsize

# Observability run hook (repro.obs.metrics installs/uninstalls this via
# enable_metrics()/disable_metrics()).  When None — the default — the
# engine is structurally unobserved: run() checks the global once at
# entry and once at exit, never inside the event loop, and simulators
# constructed while it is None do not even track their links.
_obs_run_hook: Optional[Callable[["Simulator", int, float], None]] = None


class SimulationError(Exception):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule`; keep the handle
    if the event may have to be cancelled (timers, retransmissions).
    The heap entry carries the callback itself and the event only as
    its cancellation handle (see the module docstring), so events are
    never compared during heap sifts.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim", "_popped")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._popped = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            # still in the heap: its entry is now a tombstone (a cancel
            # after the event already fired leaves nothing behind)
            if self._sim is not None and not self._popped:
                self._sim._tombstones += 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, fn={getattr(self.fn, '__name__', self.fn)!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  All random streams handed out by :meth:`rng` are
        derived from it.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self._heap: List[
            Tuple[float, int, Callable[..., None], tuple, Optional[Event]]
        ] = []
        self._seq = 0
        self._tombstones = 0  # cancelled entries still in the heap
        self._rngs: Dict[str, random.Random] = {}
        self._running = False
        self._events_processed = 0
        # populated by Link.__init__ only while the metrics plane is on
        # at construction time; None means "not tracking" (the default)
        self._obs_links: Optional[List[Any]] = (
            [] if _obs_run_hook is not None else None
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        # hottest allocation site in the engine: build the Event with
        # direct slot stores (no __init__ frame), field-for-field the
        # same object Event(...) would produce
        ev = _event_new(Event)
        ev.time = time
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev._sim = self
        ev._popped = False
        _heappush(self._heap, (time, seq, fn, args, ev))
        return ev

    def schedule_pooled(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Hot-path schedule for callers that never keep the handle.

        Pushes the callback with no :class:`Event` at all and returns
        ``None`` — the entry cannot be cancelled, so there is nothing a
        handle would be for (link serialization and delivery, two per
        packet per hop).  Ordering is identical to :meth:`schedule`
        (one ``seq`` consumed per call).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay, seq, fn, args, None))

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} (now t={self.now!r})"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        _heappush(self._heap, (time, seq, fn, args, ev))
        return ev

    def _rearm(self, ev: Event, delay: float) -> Event:
        """Re-arm a popped, never-shared event object (Timer fast path).

        The caller (only :class:`Timer`) guarantees ``ev`` already fired
        — it is not in the heap and no tombstone references it — so
        re-initializing it in place is indistinguishable from a fresh
        allocation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev.time = time
        ev.seq = seq
        ev.cancelled = False
        ev._popped = False
        _heappush(self._heap, (time, seq, ev.fn, ev.args, ev))
        return ev

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event handle previously returned by ``schedule``."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # random streams
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named random stream, creating it on first use.

        Streams are independent deterministic functions of
        ``(self.seed, name)``.
        """
        stream = self._rngs.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}:{name}")
            self._rngs[name] = stream
        return stream

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly later than this
            time.  ``sim.now`` is advanced to ``until`` on exhaustion.
        max_events:
            Safety valve; stop after this many callbacks.

        Returns
        -------
        int
            Number of events processed by this call.
        """
        processed = 0
        self._running = True
        # observability: the hook global is read once per run() call —
        # the event loop below is identical whether or not it is set
        hook = _obs_run_hook
        wall_start = _perf_counter() if hook is not None else 0.0
        heap = self._heap
        pop = _heappop
        # an absent bound is one the loop can never reach
        horizon = _INF if until is None else until
        limit = _NO_LIMIT if max_events is None else max_events
        try:
            while heap and processed < limit:
                time, _, fn, args, handle = heap[0]
                if handle is not None and handle.cancelled:
                    pop(heap)  # tombstone
                    self._tombstones -= 1
                    continue
                if time > horizon:
                    break
                pop(heap)
                if handle is not None:
                    handle._popped = True
                self.now = time
                fn(*args)
                processed += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        self._events_processed += processed
        if hook is not None:
            hook(self, processed, _perf_counter() - wall_start)
        return processed

    def step(self) -> bool:
        """Process a single event.  Returns False when the calendar is empty."""
        heap = self._heap
        while heap:
            time, _, fn, args, handle = _heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._tombstones -= 1
                    continue
                handle._popped = True
            self.now = time
            fn(*args)
            self._events_processed += 1
            return True
        return False

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still in the calendar.

        O(1): heap length minus the tombstones counted on cancel and
        uncounted when popped, instead of a scan over the heap (this
        property sits inside assertion-heavy loops in tests and
        scenarios).
        """
        return len(self._heap) - self._tombstones

    @property
    def events_processed(self) -> int:
        """Total callbacks executed since construction."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(t={self.now:.6f}, pending={self.pending})"


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Protocols use timers heavily (RTO, TFRC nofeedback, feedback pacing);
    this helper wraps the schedule/cancel bookkeeping::

        t = Timer(sim, self._on_rto)
        t.restart(3.0)   # (re)arm 3 s from now
        t.stop()
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        # the last event that *fired* (popped, handle never shared):
        # reused by the next restart so periodic re-arm-after-fire —
        # RTO backoff, TFRC nofeedback/feedback pacing — allocates
        # nothing.  A shot cancelled while armed is NOT reusable (its
        # tombstone is still in the heap): restart() tombstones it and
        # re-arms the spare when one exists (the spare already fired,
        # so it is a different object), allocating only without one.
        self._spare: Optional[Event] = None

    def restart(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, cancelling any pending shot."""
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None
        spare = self._spare
        if spare is not None:
            self._spare = None
            self._event = self._sim._rearm(spare, delay)
        else:
            self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        event = self._event  # just popped by the run loop
        if event is not None:
            self._spare = event
        self._event = None
        self._callback()

    @property
    def armed(self) -> bool:
        """True while a shot is pending."""
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time of the pending shot, or None when disarmed."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None
