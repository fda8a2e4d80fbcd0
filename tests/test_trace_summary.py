"""Tests for packet tracing."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.sim.node import Agent
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.topology import Network
from repro.sim.trace import PacketTracer, TraceEvent
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.topo import (
    ChannelSpec,
    QueueSpec,
    ScenarioSpec,
    TopologySpec,
    build,
    chain_spec,
)


class Sink(Agent):
    def __init__(self, sim):
        super().__init__(sim)
        self.got = []

    def receive(self, packet):
        self.got.append(packet)


def small_net(sim, queue=None):
    net = Network(sim)
    net.add_simplex_link("a", "b", rate_bps=8000.0, delay=0.1, queue=queue)
    net.compute_routes()
    return net


class TestPacketTracer:
    def test_enqueue_tx_deliver_sequence(self):
        sim = Simulator()
        net = small_net(sim)
        tracer = PacketTracer()
        tracer.attach(net.link("a", "b"))
        Sink(sim).attach(net.node("b"), "f")
        net.node("a").send(Packet(src="a", dst="b", flow_id="f", size=1000))
        sim.run()
        kinds = [r.event for r in tracer.records]
        assert kinds == [TraceEvent.ENQUEUE, TraceEvent.TRANSMIT, TraceEvent.DELIVER]

    def test_drop_recorded(self):
        sim = Simulator()
        net = small_net(sim, queue=DropTailQueue(capacity_packets=1))
        tracer = PacketTracer()
        tracer.attach(net.link("a", "b"))
        Sink(sim).attach(net.node("b"), "f")
        for _ in range(5):
            net.node("a").send(Packet(src="a", dst="b", flow_id="f", size=1000))
        sim.run()
        assert tracer.count(TraceEvent.DROP) > 0
        assert tracer.count(TraceEvent.DELIVER) < 5

    def test_flow_filter(self):
        sim = Simulator()
        net = small_net(sim)
        tracer = PacketTracer(flow_filter={"keep"})
        tracer.attach(net.link("a", "b"))
        Sink(sim).attach(net.node("b"), "keep")
        Sink(sim).attach(net.node("b"), "skip")
        net.node("a").send(Packet(src="a", dst="b", flow_id="keep", size=100))
        net.node("a").send(Packet(src="a", dst="b", flow_id="skip", size=100))
        sim.run()
        assert all(r.flow_id == "keep" for r in tracer.records)

    def test_one_way_delays(self):
        sim = Simulator()
        net = small_net(sim)
        tracer = PacketTracer()
        tracer.attach(net.link("a", "b"))
        Sink(sim).attach(net.node("b"), "f")
        net.node("a").send(Packet(src="a", dst="b", flow_id="f", size=1000))
        sim.run()
        delays = tracer.one_way_delays("f")
        # 1 s serialization + 0.1 s propagation
        assert delays == [pytest.approx(1.1)]

    def test_ring_buffer_bound(self):
        sim = Simulator()
        net = small_net(sim)
        tracer = PacketTracer(max_records=5)
        tracer.attach(net.link("a", "b"))
        Sink(sim).attach(net.node("b"), "f")
        for _ in range(10):
            net.node("a").send(Packet(src="a", dst="b", flow_id="f", size=10))
        sim.run()
        assert len(tracer.records) == 5
        assert tracer.dropped_records > 0

    def test_per_flow_counts(self):
        sim = Simulator()
        net = small_net(sim)
        tracer = PacketTracer()
        tracer.attach(net.link("a", "b"))
        Sink(sim).attach(net.node("b"), "f")
        for _ in range(3):
            net.node("a").send(Packet(src="a", dst="b", flow_id="f", size=10))
        sim.run()
        assert tracer.per_flow_counts(TraceEvent.DELIVER) == {"f": 3}


class TestTracerSeesWhatTheLinkCounts:
    """The tracer wraps ``send`` / ``_finish_transmission`` /
    ``_deliver`` per link instance, so every way a packet moves through
    a link has to go through those three names — checked against the
    link's own counters on a path that exercises all five events."""

    @staticmethod
    def lossy_three_hop_run(traced):
        sim = Simulator(seed=3)
        def lossy(stream):
            return ChannelSpec(kind="bernoulli", loss_rate=0.02, rng_stream=stream)

        # an independent loss stream per link direction
        hops = chain_spec(
            3, rate_bps=1e6, delay=0.005, queue=QueueSpec(capacity_packets=4)
        ).links
        shape = TopologySpec(
            tuple(
                replace(
                    hop,
                    channel=lossy(f"loss-{2 * i}"),
                    reverse_channel=lossy(f"loss-{2 * i + 1}"),
                )
                for i, hop in enumerate(hops)
            )
        )
        net = build(sim, ScenarioSpec("t", shape)).net
        tracer = PacketTracer(max_records=1_000_000) if traced else None
        if traced:
            for link in net.links:
                tracer.attach(link)
        recorder = FlowRecorder()
        sender = TcpSender(sim, dst="h3", sack=True).attach(net.node("h0"), "f")
        TcpReceiver(sim, recorder=recorder, sack=True).attach(net.node("h3"), "f")
        sender.start()
        sim.run(until=8.0)
        outcome = (
            recorder.delivered_packets, recorder.mean_rate_bps(0.0, 8.0),
            sender.sent_segments, sender.retransmissions, sender.timeouts,
            sim.events_processed,
        )
        return outcome, net.links, tracer

    def test_event_counts_equal_link_counters_and_results_unchanged(self):
        plain, _, _ = self.lossy_three_hop_run(traced=False)
        outcome, links, tracer = self.lossy_three_hop_run(traced=True)
        assert outcome == plain  # watching changes nothing
        seen = Counter((r.link, r.event) for r in tracer.records)
        assert tracer.dropped_records == 0
        for link in links:
            assert seen[link.name, TraceEvent.ENQUEUE] == link.queue.stats.enqueued
            assert seen[link.name, TraceEvent.DROP] == link.queue.stats.dropped
            assert seen[link.name, TraceEvent.TRANSMIT] == link.stats.tx_packets
            assert seen[link.name, TraceEvent.DELIVER] == link.stats.delivered_packets
            assert seen[link.name, TraceEvent.CHANNEL_LOSS] == link.stats.channel_losses
        # the path really had a full queue and a lossy channel on it
        assert sum(link.queue.stats.dropped for link in links) > 0
        assert sum(link.stats.channel_losses for link in links) > 0
        assert all(link.stats.tx_packets > 100 for link in links)


class _StubSim:
    def __init__(self):
        self.now = 0.0


class _StubLink:
    """Just enough link surface for PacketTracer._record."""

    def __init__(self, name="a->b"):
        self.name = name
        self.sim = _StubSim()


class TestRingCompactionEdges:
    """PR 4 ring internals: head offset + amortized compaction."""

    def _feed(self, tracer, link, n, start_uid=0):
        for uid in range(start_uid, start_uid + n):
            packet = Packet(src="a", dst="b", flow_id="f", size=uid)
            tracer._record(link, packet, TraceEvent.ENQUEUE)
            link.sim.now += 1.0

    def test_capacity_one_ring(self):
        # max_records=1: every record past the first both advances the
        # head AND immediately hits the head >= max_records compaction
        link = _StubLink()
        tracer = PacketTracer(max_records=1)
        self._feed(tracer, link, 5)
        assert len(tracer.records) == 1
        assert tracer.records[0].size == 4  # only the newest survives
        assert tracer.dropped_records == 4
        assert tracer._head == 0  # compacted back to a dense buffer
        assert len(tracer._times) == 1  # dead prefix physically freed

    def test_compaction_exactly_at_head_threshold(self):
        # head reaches max_records (3) exactly on the 6th record: the
        # column buffers are 2*max_records long right when compaction
        # fires, and exactly max_records live rows survive the copy
        link = _StubLink()
        tracer = PacketTracer(max_records=3)
        self._feed(tracer, link, 5)
        assert tracer._head == 2  # two discards, threshold not yet hit
        assert len(tracer._times) == 5
        self._feed(tracer, link, 1, start_uid=5)
        assert tracer._head == 0  # third discard triggered compaction
        assert len(tracer._times) == 3
        assert [r.size for r in tracer.records] == [3, 4, 5]
        assert tracer.dropped_records == 3

    def test_queries_consistent_across_compaction_boundary(self):
        # materialize every query just before and just after the
        # compaction fires; the live window must be identical modulo
        # the one record appended in between
        link = _StubLink()
        tracer = PacketTracer(max_records=3)
        self._feed(tracer, link, 5)
        before = [r.size for r in tracer.records]
        count_before = tracer.count(TraceEvent.ENQUEUE)
        per_flow_before = tracer.per_flow_counts(TraceEvent.ENQUEUE)
        self._feed(tracer, link, 1, start_uid=5)  # triggers compaction
        after = [r.size for r in tracer.records]
        assert before == [2, 3, 4]
        assert after == [3, 4, 5]
        assert count_before == 3
        assert tracer.count(TraceEvent.ENQUEUE) == 3
        assert per_flow_before == {"f": 3}
        assert tracer.per_flow_counts(TraceEvent.ENQUEUE) == {"f": 3}
        # events_of sees the same live window as records
        assert [r.size for r in tracer.events_of(TraceEvent.ENQUEUE)] == after

    def test_one_way_delays_span_compaction(self):
        # an enqueue whose deliver lands after a compaction still pairs
        # up, as long as the enqueue itself is in the live window
        link = _StubLink()
        tracer = PacketTracer(max_records=4)
        packet = Packet(src="a", dst="b", flow_id="f", size=1)
        tracer._record(link, packet, TraceEvent.ENQUEUE)
        link.sim.now = 10.0
        # 7 fillers discard 4 old rows -> one compaction fires
        self._feed(tracer, link, 7, start_uid=100)
        assert tracer._head == 0 and tracer.dropped_records == 4
        tracer._record(link, packet, TraceEvent.DELIVER)
        # the original enqueue was compacted away: no pair remains
        assert tracer.one_way_delays("f") == []
        # a fresh enqueue/deliver pair inside the live window does pair
        packet2 = Packet(src="a", dst="b", flow_id="f", size=2)
        tracer._record(link, packet2, TraceEvent.ENQUEUE)
        link.sim.now += 2.5
        tracer._record(link, packet2, TraceEvent.DELIVER)
        assert tracer.one_way_delays("f") == [pytest.approx(2.5)]


class TestOscillationDamping:
    def test_interval_stretches_when_rtt_above_mean(self):
        from repro.tfrc.rate_control import TfrcRateController

        c = TfrcRateController(segment_size=1000, oscillation_damping=True)
        for i in range(20):
            c.on_feedback(1.0 + i * 0.1, 0.01, 1e6, 0.1)
        base = c.send_interval()
        # a sudden high RTT sample stretches the instantaneous interval
        c.on_feedback(4.0, 0.01, 1e6, 0.4)
        assert c.send_interval() > base

    def test_damping_off_by_default(self):
        from repro.tfrc.rate_control import TfrcRateController

        c = TfrcRateController(segment_size=1000)
        c.on_feedback(1.0, 0.01, 1e6, 0.1)
        c.on_feedback(2.0, 0.01, 1e6, 0.4)
        assert c.send_interval() == pytest.approx(1000 / c.rate)
