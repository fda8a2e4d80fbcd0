"""Behavioural tests for the composed QTP sender/receiver."""

import pytest

from repro.core.instances import (
    QTPAF,
    QTPLIGHT,
    QTPLIGHT_RELIABLE,
    TFRC_MEDIA,
    build_transport_pair,
)
from repro.core.profile import (
    CongestionControl,
    LossEstimationSite,
    ReliabilityMode,
    TransportProfile,
)
from repro.metrics.cost import CostMeter
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.sim.packet import AppDataHeader
from repro.topo import (
    ChannelSpec,
    QueueSpec,
    ScenarioSpec,
    build,
    chain_spec,
    dumbbell_spec,
)


def lossy_link(sim, loss=0.02, rate=2e6):
    channel = (
        ChannelSpec(kind="bernoulli", loss_rate=loss, rng_stream="loss")
        if loss > 0
        else None
    )
    shape = chain_spec(1, rate_bps=rate, delay=0.02, channel=channel)
    return build(sim, ScenarioSpec("t", shape)).net


class TestProfileEquivalence:
    def run_profile(self, profile, seed=1, duration=25.0):
        sim = Simulator(seed=seed)
        shape = dumbbell_spec(
            1, bottleneck_bps=2e6, bottleneck_delay=0.02,
            bottleneck_queue=QueueSpec(capacity_packets=25),
        )
        d = build(sim, ScenarioSpec("t", shape))
        rec = FlowRecorder()
        snd, rcv = build_transport_pair(
            sim, d.net.node("s0"), d.net.node("d0"), "f", profile,
            recorder=rec, start=True,
        )
        sim.run(until=duration)
        return snd, rcv, rec

    def test_all_instances_saturate_clean_bottleneck(self):
        for profile in (TFRC_MEDIA, QTPLIGHT, QTPLIGHT_RELIABLE, QTPAF(1e6)):
            _, _, rec = self.run_profile(profile)
            rate = rec.mean_rate_bps(10, 25)
            assert rate == pytest.approx(2e6, rel=0.08), profile.name

    def test_qtplight_rate_close_to_stock_tfrc(self):
        _, _, rec_std = self.run_profile(TFRC_MEDIA)
        _, _, rec_light = self.run_profile(QTPLIGHT)
        std = rec_std.mean_rate_bps(10, 25)
        light = rec_light.mean_rate_bps(10, 25)
        assert light == pytest.approx(std, rel=0.15)


class TestQtplightCostShift:
    def test_receiver_work_reduced_and_moved_to_sender(self):
        results = {}
        for profile in (TFRC_MEDIA, QTPLIGHT):
            sim = Simulator(seed=2)
            net = lossy_link(sim, loss=0.03)
            rx, tx = CostMeter(), CostMeter()
            snd, rcv = build_transport_pair(
                sim, net.node("h0"), net.node("h1"), "f", profile,
                rx_meter=rx, tx_meter=tx, start=True,
            )
            sim.run(until=20)
            results[profile.name] = (
                rx.ops / max(1, rcv.received_packets),
                tx.ops,
                rx.peak_bytes,
            )
        tfrc_rx_ops, tfrc_tx_ops, tfrc_rx_mem = results["TFRC"]
        light_rx_ops, light_tx_ops, light_rx_mem = results["QTPlight"]
        assert light_rx_ops < tfrc_rx_ops / 1.5  # receiver lighter
        assert light_tx_ops > tfrc_tx_ops  # work moved to the sender
        assert light_rx_mem < tfrc_rx_mem  # no loss-interval history held

    def test_qtplight_receiver_has_no_estimator(self):
        sim = Simulator(seed=1)
        net = lossy_link(sim)
        snd, rcv = build_transport_pair(
            sim, net.node("h0"), net.node("h1"), "f", QTPLIGHT, start=True
        )
        assert rcv.estimator is None
        assert rcv.sack_state is not None
        assert snd.estimator is not None


class TestReliability:
    def test_full_reliability_delivers_everything_in_order(self):
        sim = Simulator(seed=3)
        net = lossy_link(sim, loss=0.05)
        got = []
        profile = TransportProfile(
            name="full",
            reliability=ReliabilityMode.FULL,
        )
        snd, rcv = build_transport_pair(
            sim, net.node("h0"), net.node("h1"), "f", profile,
            on_deliver=lambda p: got.append(p.header.seq), start=True,
        )
        sim.run(until=30)
        assert len(got) > 1000
        assert got == sorted(got)
        assert got == list(range(len(got)))  # no holes at all
        assert snd.retransmissions > 0

    def test_no_reliability_never_retransmits(self):
        sim = Simulator(seed=3)
        net = lossy_link(sim, loss=0.05)
        snd, rcv = build_transport_pair(
            sim, net.node("h0"), net.node("h1"), "f", TFRC_MEDIA, start=True
        )
        sim.run(until=20)
        assert snd.retransmissions == 0

    def test_partial_count_bounds_retransmissions(self):
        sim = Simulator(seed=3)
        net = lossy_link(sim, loss=0.05)
        profile = TransportProfile(
            name="partial",
            reliability=ReliabilityMode.PARTIAL_COUNT,
            partial_max_retx=1,
        )
        snd, rcv = build_transport_pair(
            sim, net.node("h0"), net.node("h1"), "f", profile, start=True
        )
        sim.run(until=20)
        assert snd.retransmissions > 0
        assert snd.abandoned >= 0
        # bounded: no packet retransmitted more than once
        # (total retx <= total losses detected)
        assert snd.retransmissions <= snd.scoreboard.total_lost

    def test_forward_ack_lets_receiver_skip_abandoned(self):
        sim = Simulator(seed=4)
        net = lossy_link(sim, loss=0.08)
        got = []
        profile = TransportProfile(
            name="partial-time",
            reliability=ReliabilityMode.PARTIAL_TIME,
            partial_deadline=0.2,
        )
        snd, rcv = build_transport_pair(
            sim, net.node("h0"), net.node("h1"), "f", profile,
            on_deliver=lambda p: got.append(p.header.seq), start=True,
        )
        sim.run(until=20)
        assert got == sorted(got)  # still ordered
        assert rcv.skipped_messages > 0  # holes were given up on
        # delivery kept flowing at roughly the equation rate for p=8%
        assert len(got) > 700

    def test_media_mode_sender_idles_without_data(self):
        sim = Simulator(seed=1)
        net = lossy_link(sim, loss=0.0)
        snd, rcv = build_transport_pair(
            sim, net.node("h0"), net.node("h1"), "f", TFRC_MEDIA, bulk=False, start=True
        )
        sim.run(until=5)
        assert snd.sent_packets == 0
        for i in range(10):
            snd.enqueue_message(AppDataHeader(app_seq=i))
        sim.run(until=20)
        assert snd.sent_packets == 10
        assert rcv.received_packets == 10


class TestGtfrcComposition:
    def test_qtpaf_sender_uses_gtfrc(self):
        from repro.tfrc.gtfrc import GtfrcRateController

        sim = Simulator(seed=1)
        d = build(sim, ScenarioSpec("t", dumbbell_spec(1)))
        snd, _ = build_transport_pair(
            sim, d.net.node("s0"), d.net.node("d0"), "f", QTPAF(1e6)
        )
        assert isinstance(snd.controller, GtfrcRateController)
        assert snd.controller.target_rate == pytest.approx(1e6 / 8)

    def test_window_profile_builds_tcp(self):
        from repro.core.instances import TCP_LIKE
        from repro.tcp.sender import TcpSender

        sim = Simulator(seed=1)
        d = build(sim, ScenarioSpec("t", dumbbell_spec(1)))
        snd, rcv = build_transport_pair(
            sim, d.net.node("s0"), d.net.node("d0"), "f", TCP_LIKE
        )
        assert isinstance(snd, TcpSender)
