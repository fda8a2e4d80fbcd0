"""Behavioural tests for the TCP baseline."""

import pytest

from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.topo import (
    ChannelSpec,
    QueueSpec,
    ScenarioSpec,
    build,
    chain_spec,
    dumbbell_spec,
)


def tcp_pair(sim, src, dst, flow, recorder=None, **kw):
    snd = TcpSender(sim, dst=dst.name, **kw).attach(src, flow)
    rcv = TcpReceiver(sim, recorder=recorder, sack=kw.get("sack", False)).attach(
        dst, flow
    )
    return snd, rcv


class TestCleanPath:
    def test_saturates_bottleneck(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(
            1, bottleneck_bps=4e6, bottleneck_delay=0.02,
            bottleneck_queue=QueueSpec(capacity_packets=50),
        )
        d = build(sim, ScenarioSpec("t", shape))
        rec = FlowRecorder()
        snd, _ = tcp_pair(sim, d.net.node("s0"), d.net.node("d0"), "f", rec)
        snd.start()
        sim.run(until=20)
        assert rec.mean_rate_bps(5, 20) == pytest.approx(4e6, rel=0.05)

    def test_no_loss_means_no_retransmissions(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(
            1, bottleneck_bps=4e6, bottleneck_delay=0.02,
            bottleneck_queue=QueueSpec(capacity_packets=500),
        )
        d = build(sim, ScenarioSpec("t", shape))
        snd, _ = tcp_pair(sim, d.net.node("s0"), d.net.node("d0"), "f",
                          max_cwnd=30.0)  # window-limited: queue never fills
        snd.start()
        sim.run(until=10)
        assert snd.retransmissions == 0
        assert snd.timeouts == 0

    def test_slow_start_doubles_window(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(1, bottleneck_bps=50e6, bottleneck_delay=0.05)
        d = build(sim, ScenarioSpec("t", shape))
        snd, _ = tcp_pair(sim, d.net.node("s0"), d.net.node("d0"), "f")
        snd.start()
        sim.run(until=0.7)  # a few RTTs (~0.1 s each)
        assert snd.cwnd > 20  # grew well beyond initial 3

    def test_delivery_in_order_goodput(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(1, bottleneck_bps=2e6, bottleneck_delay=0.01)
        d = build(sim, ScenarioSpec("t", shape))
        rec = FlowRecorder()
        snd, rcv = tcp_pair(sim, d.net.node("s0"), d.net.node("d0"), "f", rec)
        snd.start()
        sim.run(until=5)
        # no duplicates delivered to the recorder
        assert rec.delivered_packets == rcv.state.received


class TestLossRecovery:
    def lossy_run(self, sack, seed=5, loss=0.02, duration=30):
        sim = Simulator(seed=seed)
        lossy = ChannelSpec(kind="bernoulli", loss_rate=loss, rng_stream="l")
        shape = chain_spec(1, rate_bps=4e6, delay=0.02, channel=lossy)
        net = build(sim, ScenarioSpec("t", shape)).net
        rec = FlowRecorder()
        snd, rcv = tcp_pair(sim, net.node("h0"), net.node("h1"), "f", rec, sack=sack)
        snd.start()
        sim.run(until=duration)
        return snd, rcv, rec

    def test_fast_retransmit_repairs_without_timeout(self):
        snd, _, rec = self.lossy_run(sack=False, loss=0.005)
        assert snd.fast_retransmits > 0
        assert rec.delivered_packets > 1000

    def test_all_data_eventually_delivered_in_order(self):
        snd, rcv, _ = self.lossy_run(sack=True)
        # cumulative ack only advances over contiguous data
        assert rcv.state.cum_ack > 1000

    def test_sack_beats_reno_at_moderate_loss(self):
        _, _, rec_reno = self.lossy_run(sack=False, loss=0.03)
        _, _, rec_sack = self.lossy_run(sack=True, loss=0.03)
        assert rec_sack.mean_rate_bps(5, 30) > 0.8 * rec_reno.mean_rate_bps(5, 30)

    def test_timeouts_recovered(self):
        snd, _, rec = self.lossy_run(sack=False, loss=0.08, duration=40)
        assert snd.timeouts > 0  # heavy loss forces RTOs
        assert rec.mean_rate_bps(10, 40) > 1e4  # but the flow survives

    def test_cwnd_halves_on_fast_retransmit(self):
        snd, _, _ = self.lossy_run(sack=False, loss=0.01)
        drops = [c for _, c in snd.cwnd_log]
        assert min(drops) < max(drops) / 2  # sawtooth visible


class TestReceiver:
    def test_acks_every_segment_by_default(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(1, bottleneck_bps=2e6, bottleneck_delay=0.01)
        d = build(sim, ScenarioSpec("t", shape))
        snd, rcv = tcp_pair(sim, d.net.node("s0"), d.net.node("d0"), "f")
        snd.start()
        sim.run(until=3)
        assert rcv.acks_sent == rcv.received_segments

    def test_delayed_ack_halves_ack_rate(self):
        sim = Simulator(seed=1)
        # window-limited so the path stays loss-free: every segment
        # arrives in order and only the every-2nd rule generates ACKs
        shape = dumbbell_spec(
            1, bottleneck_bps=2e6, bottleneck_delay=0.01,
            bottleneck_queue=QueueSpec(capacity_packets=500),
        )
        d = build(sim, ScenarioSpec("t", shape))
        snd = TcpSender(sim, dst="d0", max_cwnd=10.0).attach(d.net.node("s0"), "f")
        rcv = TcpReceiver(sim, delayed_ack=True).attach(d.net.node("d0"), "f")
        snd.start()
        sim.run(until=3)
        assert rcv.acks_sent <= rcv.received_segments * 0.6

    def test_sack_blocks_in_acks(self):
        sim = Simulator(seed=7)
        lossy = ChannelSpec(kind="bernoulli", loss_rate=0.05, rng_stream="l")
        shape = chain_spec(1, rate_bps=2e6, delay=0.02, channel=lossy)
        net = build(sim, ScenarioSpec("t", shape)).net
        rec = FlowRecorder()
        snd, rcv = tcp_pair(sim, net.node("h0"), net.node("h1"), "f", rec, sack=True)
        snd.start()
        sim.run(until=5)
        assert rcv.state.interval_count >= 0  # exercised without crashing
        assert snd.scoreboard.total_lost > 0  # losses detected via blocks
