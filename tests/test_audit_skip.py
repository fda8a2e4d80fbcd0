"""Unit tests for the QTPlight audit-skip lie detector."""

import pytest

from repro.core.instances import QTPLIGHT, TFRC_MEDIA, build_transport_pair
from repro.core.qtplight import LyingFeedbackFilter
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import ChannelSpec, ScenarioSpec, build, chain_spec


def run_pair(lying=False, loss=0.02, duration=25.0, seed=3, audit=150):
    from dataclasses import replace

    sim = Simulator(seed=seed)
    channel = (
        ChannelSpec(kind="bernoulli", loss_rate=loss, rng_stream="l")
        if loss > 0
        else None
    )
    shape = chain_spec(1, rate_bps=2e6, delay=0.02, channel=channel)
    net = build(sim, ScenarioSpec("t", shape)).net
    rec = FlowRecorder()
    profile = replace(QTPLIGHT, audit_skip_interval=audit)
    flt = LyingFeedbackFilter() if lying else None
    snd, rcv = build_transport_pair(
        sim, net.node("h0"), net.node("h1"), "f", profile,
        recorder=rec, feedback_filter=flt, start=True,
    )
    sim.run(until=duration)
    return snd, rcv, rec


class TestAuditSkip:
    def test_skips_allocated_in_honest_run(self):
        snd, _, _ = run_pair(lying=False)
        # the sender burned some sequence numbers without sending them
        assert snd.sent_packets < snd.next_seq

    def test_honest_receiver_never_flagged(self):
        snd, _, rec = run_pair(lying=False, loss=0.05)
        assert not snd.cheater_detected
        assert rec.delivered_packets > 1000  # flow unharmed

    def test_lying_receiver_detected_quickly(self):
        snd, _, _ = run_pair(lying=True)
        assert snd.cheater_detected

    def test_detected_cheater_throttled(self):
        snd, _, rec = run_pair(lying=True, duration=30.0)
        honest_snd, _, honest_rec = run_pair(lying=False, duration=30.0)
        assert rec.mean_rate_bps(10, 30) < 0.05 * honest_rec.mean_rate_bps(10, 30)

    def test_audit_disabled_means_no_detection(self):
        snd, _, _ = run_pair(lying=True, audit=0)
        assert not snd.cheater_detected

    def test_audit_overhead_negligible_honest(self):
        _, _, with_audit = run_pair(lying=False, audit=150, seed=9)
        _, _, without = run_pair(lying=False, audit=0, seed=9)
        rate_with = with_audit.mean_rate_bps(10, 25)
        rate_without = without.mean_rate_bps(10, 25)
        assert rate_with == pytest.approx(rate_without, rel=0.1)

    def test_skipped_seqs_pruned_behind_floor(self):
        snd, _, _ = run_pair(lying=False, duration=30.0)
        # the watch set stays tiny: old skips fall behind the forward point
        assert len(snd._skipped) < 10


class TestQtplightNoReceiverEstimatorRegression:
    def test_receiver_meter_unaffected_by_audit(self):
        from repro.metrics.cost import CostMeter

        sim = Simulator(seed=3)
        shape = chain_spec(1, rate_bps=2e6, delay=0.02)
        net = build(sim, ScenarioSpec("t", shape)).net
        meter = CostMeter()
        snd, rcv = build_transport_pair(
            sim, net.node("h0"), net.node("h1"), "f", QTPLIGHT,
            rx_meter=meter, start=True,
        )
        sim.run(until=10)
        # per-packet receiver work stays in the SACK-state ballpark
        assert meter.ops / max(1, rcv.received_packets) < 6
