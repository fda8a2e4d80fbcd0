"""Behavioural tests for stock RFC 3448 TFRC: the ``TFRC_MEDIA`` profile.

The endpoints are the ones every ``tfrc`` flow in a scenario runs:
``QtpSender`` / ``QtpReceiver`` composed with the ``TFRC_MEDIA`` profile.
"""

import pytest

from repro.core.instances import TFRC_MEDIA, build_transport_pair
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import (
    ChannelSpec,
    QueueSpec,
    ScenarioSpec,
    build,
    chain_spec,
    dumbbell_spec,
)


def tfrc_pair(sim, src, dst, flow="f", recorder=None):
    return build_transport_pair(sim, src, dst, flow, TFRC_MEDIA, recorder=recorder)


class TestSteadyState:
    def test_saturates_clean_bottleneck(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(
            1, bottleneck_bps=2e6, bottleneck_delay=0.02,
            bottleneck_queue=QueueSpec(capacity_packets=25),
        )
        d = build(sim, ScenarioSpec("t", shape))
        rec = FlowRecorder()
        snd, _ = tfrc_pair(sim, d.net.node("s0"), d.net.node("d0"), recorder=rec)
        snd.start()
        sim.run(until=30)
        assert rec.mean_rate_bps(10, 30) == pytest.approx(2e6, rel=0.05)

    def test_rate_respects_equation_under_loss(self):
        from repro.tfrc.equation import tcp_throughput

        sim = Simulator(seed=3)
        loss = 0.02
        lossy = ChannelSpec(kind="bernoulli", loss_rate=loss, rng_stream="l")
        shape = chain_spec(1, rate_bps=10e6, delay=0.05, channel=lossy)
        net = build(sim, ScenarioSpec("t", shape)).net
        rec = FlowRecorder()
        snd, rcv = tfrc_pair(sim, net.node("h0"), net.node("h1"), recorder=rec)
        snd.start()
        sim.run(until=60)
        measured = rec.mean_rate(20, 60)  # bytes/s
        # rtt ~ 0.1 s + queueing; p is an RFC loss-event rate, slightly
        # below the raw 2% packet loss.  Expect the same order of
        # magnitude as the equation's prediction.
        predicted = tcp_throughput(1000, snd.controller.rtt.rtt, loss)
        assert measured == pytest.approx(predicted, rel=0.6)

    def test_no_feedback_halves_rate(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(1, bottleneck_bps=2e6, bottleneck_delay=0.02)
        d = build(sim, ScenarioSpec("t", shape))
        snd, rcv = tfrc_pair(sim, d.net.node("s0"), d.net.node("d0"))
        snd.start()
        sim.run(until=5)
        rate_before = snd.rate
        rcv.stop()
        d.net.node("d0").unbind("f")
        sink_drops = []
        d.net.node("d0").on_unroutable = sink_drops.append

        class Blackhole:
            def receive(self, packet):
                pass

        bh = Blackhole()
        d.net.node("d0").bind("f", bh)
        sim.run(until=15)
        assert snd.controller.timeout_count > 0
        assert snd.rate < rate_before / 2

    def test_sender_stop_cancels_events(self):
        sim = Simulator(seed=1)
        d = build(sim, ScenarioSpec("t", dumbbell_spec(1)))
        snd, rcv = tfrc_pair(sim, d.net.node("s0"), d.net.node("d0"))
        snd.start()
        sim.run(until=2)
        snd.stop()
        rcv.stop()
        sim.run(until=2.5)
        sent_at_stop = snd.sent_packets
        sim.run(until=10)
        assert snd.sent_packets == sent_at_stop


class TestFeedback:
    def test_receiver_reports_about_once_per_rtt(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(1, bottleneck_bps=2e6, bottleneck_delay=0.05)
        d = build(sim, ScenarioSpec("t", shape))
        rec = FlowRecorder()
        snd, rcv = tfrc_pair(sim, d.net.node("s0"), d.net.node("d0"), recorder=rec)
        snd.start()
        sim.run(until=20)
        rtt = snd.controller.rtt.rtt
        expected_reports = 20 / rtt
        assert rcv.feedback_sent == pytest.approx(expected_reports, rel=0.5)

    def test_receiver_quiet_without_data(self):
        sim = Simulator(seed=1)
        d = build(sim, ScenarioSpec("t", dumbbell_spec(1)))
        snd, rcv = tfrc_pair(sim, d.net.node("s0"), d.net.node("d0"))
        snd.start()
        sim.run(until=3)
        snd.stop()
        sim.run(until=3.5)
        sent_after_stop = rcv.feedback_sent
        sim.run(until=20)
        assert rcv.feedback_sent <= sent_after_stop + 1

    def test_rtt_estimate_close_to_real(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(
            1, bottleneck_bps=5e6, bottleneck_delay=0.04, access_delay=0.005
        )
        d = build(sim, ScenarioSpec("t", shape))
        snd, _ = tfrc_pair(sim, d.net.node("s0"), d.net.node("d0"))
        snd.start()
        sim.run(until=10)
        base_rtt = 2 * (0.04 + 2 * 0.005)
        assert snd.controller.rtt.rtt >= base_rtt * 0.9
        assert snd.controller.rtt.rtt <= base_rtt * 2.5  # plus queueing

    def test_loss_event_rate_reported(self):
        sim = Simulator(seed=2)
        lossy = ChannelSpec(kind="bernoulli", loss_rate=0.03, rng_stream="l")
        shape = chain_spec(1, rate_bps=2e6, delay=0.02, channel=lossy)
        net = build(sim, ScenarioSpec("t", shape)).net
        snd, rcv = tfrc_pair(sim, net.node("h0"), net.node("h1"))
        snd.start()
        sim.run(until=30)
        p = rcv.estimator.loss_event_rate()
        assert 0.001 < p < 0.2
        assert snd.controller.p == pytest.approx(p, rel=0.5)


class TestSmoothness:
    def test_tfrc_smoother_than_tcp(self):
        from repro.harness.experiments.smoothness import smoothness_scenario

        tfrc = smoothness_scenario("tfrc", duration=40, warmup=10, seed=4)
        tcp = smoothness_scenario("tcp", duration=40, warmup=10, seed=4)
        assert tfrc.cov < tcp.cov
