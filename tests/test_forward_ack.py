"""End-to-end tests of the forward-ack (PR-SCTP-style) mechanism."""

import pytest

from repro.core.instances import QTPLIGHT, build_transport_pair
from repro.core.profile import ReliabilityMode, TransportProfile
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import ChannelSpec, ScenarioSpec, build, chain_spec


def run(profile, loss=0.05, duration=25.0, seed=4):
    sim = Simulator(seed=seed)
    lossy = ChannelSpec(kind="bernoulli", loss_rate=loss, rng_stream="l")
    shape = chain_spec(1, rate_bps=2e6, delay=0.02, channel=lossy)
    net = build(sim, ScenarioSpec("t", shape)).net
    rec = FlowRecorder()
    snd, rcv = build_transport_pair(
        sim, net.node("h0"), net.node("h1"), "f", profile, recorder=rec, start=True
    )
    sim.run(until=duration)
    return snd, rcv, rec


class TestForwardAck:
    def test_scoreboard_stays_bounded_without_reliability(self):
        snd, rcv, _ = run(QTPLIGHT)
        # without forward-ack pruning this grows with every loss forever
        assert snd.scoreboard.outstanding < 300

    def test_receiver_intervals_stay_bounded(self):
        snd, rcv, _ = run(QTPLIGHT)
        assert rcv.sack_state.interval_count < 50

    def test_cum_ack_tracks_despite_permanent_holes(self):
        snd, rcv, _ = run(QTPLIGHT)
        # cumulative ack keeps pace with the stream despite unrepaired
        # losses, thanks to the advertised forward point
        assert rcv.sack_state.cum_ack > 0.8 * snd.next_seq - 300

    def test_partial_count_abandonment_advances_floor(self):
        profile = TransportProfile(
            name="pc", reliability=ReliabilityMode.PARTIAL_COUNT, partial_max_retx=0
        )
        snd, rcv, _ = run(profile, loss=0.08)
        assert snd.abandoned > 0
        assert rcv.sack_state.cum_ack > 1000

    def test_full_reliability_never_abandons(self):
        profile = TransportProfile(name="full", reliability=ReliabilityMode.FULL)
        snd, rcv, _ = run(profile)
        assert snd.abandoned == 0
        # every hole gets repaired: no skips at the delivery buffer
        assert rcv.skipped_messages == 0
