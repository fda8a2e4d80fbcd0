"""Tests for the allocation-free fast path (PR 4).

Three layers are covered:

* :class:`repro.sim.packet.PacketPool` — type-keyed recycling, full
  field re-init (fresh uid, color reset), the ``pooled`` ownership
  flag, the ``REPRO_NO_POOL`` kill-switch, and pool-on/pool-off
  equivalence of a full network run;
* engine scheduling without a handle — ``schedule_pooled`` ordering
  parity with ``schedule`` at one ``seq`` per call and nothing left on
  the simulator after firing — and the :class:`Timer` spare re-arm
  (allocation-free periodic timers, no tombstone reuse);
* end-to-end: agents actually hit the pool in a real scenario.
"""

import pytest

from repro.sim.engine import Simulator, Timer
from repro.sim.packet import (
    Color,
    NO_POOL_ENV,
    Packet,
    PacketKind,
    PacketPool,
    TcpSegmentHeader,
    TfrcDataHeader,
    pooling_enabled,
)


def _data_packet(**overrides):
    fields = dict(
        src="a",
        dst="b",
        flow_id="f",
        size=1000,
        kind=PacketKind.DATA,
        header=TfrcDataHeader(seq=1, timestamp=2.0, rtt_estimate=0.05),
        color=Color.GREEN,
        created_at=2.0,
    )
    fields.update(overrides)
    return Packet(**fields)


class TestPacketPool:
    def test_miss_then_recycle_roundtrip(self):
        pool = PacketPool()
        assert pool.acquire(
            TfrcDataHeader, "a", "b", "f", 100, PacketKind.DATA, 0.0
        ) is None  # empty pool: caller constructs
        packet = _data_packet()
        packet.pooled = True
        pool.release(packet)
        again = pool.acquire(
            TfrcDataHeader, "x", "y", "g", 40, PacketKind.FEEDBACK, 9.0
        )
        assert again is packet  # same object, recycled
        assert isinstance(again.header, TfrcDataHeader)

    def test_acquire_reinitializes_every_packet_field(self):
        pool = PacketPool()
        packet = _data_packet()
        packet.hops = 7
        packet.pooled = True
        old_uid = packet.uid
        pool.release(packet)
        p = pool.acquire(TfrcDataHeader, "s", "d", "flow", 500,
                         PacketKind.DATA, 3.5)
        assert (p.src, p.dst, p.flow_id, p.size) == ("s", "d", "flow", 500)
        assert p.kind is PacketKind.DATA
        assert p.color is Color.RED  # construction default restored
        assert p.created_at == 3.5
        assert p.app is None
        assert p.hops == 0
        assert p.uid > old_uid  # fresh uid from the shared counter
        assert p.pooled

    def test_uid_draw_parity_with_construction(self):
        # one logical packet = one uid draw, pooled or constructed, so
        # uid sequences are identical with pooling on or off
        pool = PacketPool()
        packet = _data_packet()
        packet.pooled = True
        pool.release(packet)
        recycled = pool.acquire(TfrcDataHeader, "a", "b", "f", 1,
                                PacketKind.DATA, 0.0)
        fresh = _data_packet()
        assert fresh.uid == recycled.uid + 1

    def test_free_lists_are_keyed_by_header_class(self):
        pool = PacketPool()
        packet = _data_packet()
        packet.pooled = True
        pool.release(packet)
        # a different header class must not receive this object
        assert pool.acquire(TcpSegmentHeader, "a", "b", "f", 1,
                            PacketKind.DATA, 0.0) is None
        assert pool.acquire(TfrcDataHeader, "a", "b", "f", 1,
                            PacketKind.DATA, 0.0) is packet

    def test_release_ignores_unmanaged_packets(self):
        pool = PacketPool()
        packet = _data_packet()  # pooled=False: a test/app-owned packet
        pool.release(packet)
        assert pool.acquire(TfrcDataHeader, "a", "b", "f", 1,
                            PacketKind.DATA, 0.0) is None

    def test_double_release_is_harmless(self):
        pool = PacketPool()
        packet = _data_packet()
        packet.pooled = True
        pool.release(packet)
        pool.release(packet)  # flag cleared by the first release
        assert pool.acquire(TfrcDataHeader, "a", "b", "f", 1,
                            PacketKind.DATA, 0.0) is packet
        assert pool.acquire(TfrcDataHeader, "a", "b", "f", 1,
                            PacketKind.DATA, 0.0) is None

    def test_copy_is_never_pool_managed(self):
        packet = _data_packet()
        packet.pooled = True
        assert packet.copy().pooled is False

    def test_free_list_is_bounded(self):
        pool = PacketPool(max_free=2)
        for _ in range(5):
            packet = _data_packet()
            packet.pooled = True
            pool.release(packet)
        assert pool.recycled == 2

    def test_pool_is_per_simulator(self, monkeypatch):
        monkeypatch.delenv(NO_POOL_ENV, raising=False)
        sim_a, sim_b = Simulator(seed=0), Simulator(seed=0)
        assert PacketPool.of(sim_a) is PacketPool.of(sim_a)
        assert PacketPool.of(sim_a) is not PacketPool.of(sim_b)

    def test_kill_switch_disables_pooling(self, monkeypatch):
        monkeypatch.setenv(NO_POOL_ENV, "1")
        assert not pooling_enabled()
        assert PacketPool.of(Simulator(seed=0)) is None

    def test_kill_switch_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv(NO_POOL_ENV, "0")
        assert pooling_enabled()


class TestPoolEquivalence:
    def test_network_results_identical_with_pool_off(self, monkeypatch):
        from repro.harness.probes import network_trace_probe

        pooled = network_trace_probe(seed=4, protocol="qtpaf", duration=3.0)
        monkeypatch.setenv(NO_POOL_ENV, "1")
        bare = network_trace_probe(seed=4, protocol="qtpaf", duration=3.0)
        assert pooled == bare

    def test_agents_hit_the_pool_in_a_real_run(self, monkeypatch):
        from repro.topo import build, t1_dumbbell_spec

        monkeypatch.delenv(NO_POOL_ENV, raising=False)
        sim = Simulator(seed=0)
        build(sim, t1_dumbbell_spec("qtpaf", 4e6, n_cross=1))
        sim.run(until=3.0)
        pool = PacketPool.of(sim)
        assert pool is not None
        assert pool.hits > 0 and pool.recycled > pool.hits / 2


class TestEventReuse:
    def test_schedule_pooled_orders_like_schedule(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(0.5, fired.append, "handle-1")
        sim.schedule_pooled(0.5, fired.append, "pooled-1")
        sim.schedule(0.5, fired.append, "handle-2")
        sim.schedule_pooled(0.2, fired.append, "pooled-2")
        sim.run()
        assert fired == ["pooled-2", "handle-1", "pooled-1", "handle-2"]

    def test_no_handle_schedule_leaves_nothing_behind(self):
        sim = Simulator(seed=0)
        first = sim.schedule(0.3, lambda: None)
        fired = []
        assert sim.schedule_pooled(0.1, fired.append, "x") is None
        assert sim.schedule(0.2, lambda: None).seq == first.seq + 2  # one seq
        assert sim.pending == 3  # counted until it fires
        assert sim.run(until=0.1) == 1 and fired == ["x"]
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0
        # nothing kept for reuse, no counter left moved: the run changed
        # the clock and the two totals, and nothing else on the simulator
        fresh = vars(Simulator(seed=0))
        changed = {name for name, value in vars(sim).items() if value != fresh[name]}
        assert changed == {"now", "_seq", "_events_processed"}

    def test_schedule_pooled_counts_and_rejects_past(self):
        sim = Simulator(seed=0)
        sim.schedule_pooled(0.1, lambda: None)
        assert sim.pending == 1
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError):
            sim.schedule_pooled(-0.1, lambda: None)

    def test_timer_rearm_after_fire_reuses_event_object(self):
        sim = Simulator(seed=0)
        ticks = []
        timer = Timer(sim, lambda: ticks.append(sim.now))
        timer.restart(1.0)
        first = timer._event
        sim.run()
        assert ticks == [1.0]
        timer.restart(1.0)
        assert timer._event is first  # spare reused, no allocation
        sim.run()
        assert ticks == [1.0, 2.0]

    def test_timer_restart_while_armed_never_reuses_tombstone(self):
        sim = Simulator(seed=0)
        ticks = []
        timer = Timer(sim, lambda: ticks.append(sim.now))
        timer.restart(1.0)
        tombstoned = timer._event
        timer.restart(2.0)  # while armed: old shot cancelled in-heap
        assert timer._event is not tombstoned
        sim.run()
        assert ticks == [2.0]  # exactly one shot; the tombstone is dead

    def test_timer_periodic_chain_fires_like_before(self):
        sim = Simulator(seed=0)
        ticks = []

        def tick():
            ticks.append(round(sim.now, 6))
            if len(ticks) < 5:
                timer.restart(0.5)

        timer = Timer(sim, tick)
        timer.restart(0.5)
        sim.run()
        assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_engine_probe_unchanged_by_reuse(self):
        # the golden digests pin absolute values; this guards the
        # schedule()/schedule_pooled() seq parity on top of them
        from repro.harness.probes import engine_trace_probe

        assert engine_trace_probe(seed=9) == engine_trace_probe(seed=9)
