"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.5, order.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 1.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0  # advanced to the horizon
        sim.run()
        assert fired == [1, 5]

    def test_run_returns_processed_count(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        assert sim.run() == 7

    def test_max_events_limit(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending == 6


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.cancel(ev)
        sim.cancel(None)  # tolerated
        assert sim.run() == 0

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.time == 1.0

    def test_pending_counter_tracks_heap_scan(self):
        # the O(1) counter must agree with a naive heap scan through
        # schedule / cancel / run / step churn
        sim = Simulator(seed=7)
        rng = sim.rng("churn")
        events = []

        def naive():
            # the last element of a heap entry is its cancellation
            # handle; entries scheduled without one are always live
            return sum(
                1
                for entry in sim._heap
                if entry[-1] is None or not entry[-1].cancelled
            )

        for i in range(200):
            if i % 5 == 0:
                sim.schedule_pooled(rng.uniform(0, 10), lambda: None)
            events.append(sim.schedule(rng.uniform(0, 10), lambda: None))
            if rng.random() < 0.4:
                rng.choice(events).cancel()
            assert sim.pending == naive()
        sim.run(until=5.0)
        assert sim.pending == naive()
        while sim.step():
            assert sim.pending == naive()
        assert sim.pending == 0

    def test_pending_unchanged_by_cancel_after_fire(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.pending == 1
        fired.cancel()  # firing already consumed the event
        fired.cancel()
        assert sim.pending == 1

    def test_pending_counts_double_cancel_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending == 1


class TestRandomStreams:
    def test_streams_are_deterministic_per_seed(self):
        a = Simulator(seed=42).rng("x").random()
        b = Simulator(seed=42).rng("x").random()
        assert a == b

    def test_streams_differ_by_name(self):
        sim = Simulator(seed=42)
        assert sim.rng("x").random() != sim.rng("y").random()

    def test_streams_differ_by_seed(self):
        a = Simulator(seed=1).rng("x").random()
        b = Simulator(seed=2).rng("x").random()
        assert a != b

    def test_same_name_returns_same_stream(self):
        sim = Simulator()
        assert sim.rng("x") is sim.rng("x")


class TestTimer:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.restart(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_supersedes_previous_shot(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.restart(1.0)
        t.restart(3.0)
        sim.run()
        assert fired == [3.0]

    def test_stop_disarms(self):
        sim = Simulator()
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.restart(1.0)
        t.stop()
        sim.run()
        assert fired == []
        assert not t.armed

    def test_armed_and_expiry(self):
        sim = Simulator()
        t = Timer(sim, lambda: None)
        assert not t.armed and t.expiry is None
        t.restart(4.0)
        assert t.armed and t.expiry == 4.0

    def test_timer_can_rearm_from_callback(self):
        sim = Simulator()
        fired = []

        def cb():
            fired.append(sim.now)
            if len(fired) < 3:
                t.restart(1.0)

        t = Timer(sim, cb)
        t.restart(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# the run loop against a sorted reference list
# ----------------------------------------------------------------------
DELAY = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])  # few values: many ties
PICK = st.integers(min_value=0, max_value=1_000)
engine_op = st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_pooled", "schedule_at"]), DELAY),
    st.tuples(st.just("timer_restart"), st.integers(0, 1), DELAY),
    st.tuples(st.just("timer_stop"), st.integers(0, 1)),
    st.tuples(st.just("cancel"), PICK),
    st.tuples(st.just("run_until"), DELAY),
    st.tuples(st.just("run_max_events"), st.integers(0, 4)),
    st.tuples(st.just("step")),
)


class ReferenceCalendar:
    """What the engine promises, as a list: fire by ``(time, seq)``,
    skip what was cancelled, one ``seq`` per scheduling call."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []  # [time, seq, tag, live]
        self.fired = []

    def add(self, time, tag):
        entry = [time, self.seq, tag, True]
        self.seq += 1
        self.entries.append(entry)
        return entry

    def pending(self):
        return sum(1 for entry in self.entries if entry[3])

    def run(self, until=None, max_events=None):
        processed = 0
        while max_events is None or processed < max_events:
            live = sorted(entry for entry in self.entries if entry[3])
            if not live or (until is not None and live[0][0] > until):
                break
            entry = live[0]
            entry[3] = False
            self.now = entry[0]
            self.fired.append(entry[2])
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        return processed


class TestRunLoopAgainstReference:
    @given(st.lists(engine_op, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_fires_in_time_seq_order_and_pending_matches(self, ops):
        sim, ref = Simulator(), ReferenceCalendar()
        fired = []
        handles = []  # (Event, reference entry)
        timers = [Timer(sim, lambda k=k: fired.append(("timer", k))) for k in (0, 1)]
        armed = [None, None]  # reference entry of each timer's pending shot

        for n, op in enumerate(ops):
            kind = op[0]
            if kind == "schedule":
                handles.append((sim.schedule(op[1], fired.append, n),
                                ref.add(ref.now + op[1], n)))
            elif kind == "schedule_pooled":
                assert sim.schedule_pooled(op[1], fired.append, n) is None
                ref.add(ref.now + op[1], n)
            elif kind == "schedule_at":
                handles.append((sim.schedule_at(sim.now + op[1], fired.append, n),
                                ref.add(ref.now + op[1], n)))
            elif kind == "timer_restart":
                timers[op[1]].restart(op[2])
                if armed[op[1]] is not None:
                    armed[op[1]][3] = False
                armed[op[1]] = ref.add(ref.now + op[2], ("timer", op[1]))
            elif kind == "timer_stop":
                timers[op[1]].stop()
                if armed[op[1]] is not None:
                    armed[op[1]][3] = False
                    armed[op[1]] = None
            elif kind == "cancel" and handles:
                event, entry = handles[op[1] % len(handles)]
                event.cancel()  # possibly again, possibly after it fired
                entry[3] = False
            elif kind == "run_until":
                until = ref.now + op[1]
                assert sim.run(until=until) == ref.run(until=until)
            elif kind == "run_max_events":
                assert sim.run(max_events=op[1]) == ref.run(max_events=op[1])
            elif kind == "step":
                assert sim.step() == (ref.run(max_events=1) == 1)
            assert fired == ref.fired
            assert sim.now == ref.now
            assert sim.pending == ref.pending()
        assert sim.run() == ref.run()
        assert fired == ref.fired and sim.pending == 0
