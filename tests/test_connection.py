"""Tests for the wire-level capability handshake."""

import pytest

from repro.core.connection import Initiator, Responder
from repro.core.negotiation import CapabilitySet
from repro.core.profile import CongestionControl, LossEstimationSite
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import ChannelSpec, ScenarioSpec, build, chain_spec, dumbbell_spec


def handshake(sim, net_src, net_dst, init_caps, resp_caps, **init_kw):
    established = {}
    resp = Responder(
        sim, resp_caps,
        on_established=lambda rcv, prof: established.update(rcv=rcv, prof=prof),
    ).attach(net_dst, "conn")
    init = Initiator(
        sim, dst=net_dst.name, capabilities=init_caps,
        on_established=lambda snd, prof: established.update(snd=snd),
        **init_kw,
    ).attach(net_src, "conn")
    init.start()
    return init, resp, established


class TestHandshake:
    def test_profile_agreed_and_data_flows(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(1, bottleneck_bps=2e6, bottleneck_delay=0.02)
        d = build(sim, ScenarioSpec("t", shape))
        init, resp, est = handshake(
            sim, d.net.node("s0"), d.net.node("d0"),
            CapabilitySet(), CapabilitySet(),
        )
        sim.run(until=10)
        assert "snd" in est and "rcv" in est
        assert est["rcv"].received_packets > 100  # transport running
        assert init.profile == resp.profile

    def test_light_receiver_negotiates_qtplight(self):
        sim = Simulator(seed=1)
        d = build(sim, ScenarioSpec("t", dumbbell_spec(1)))
        _, _, est = handshake(
            sim, d.net.node("s0"), d.net.node("d0"),
            CapabilitySet(), CapabilitySet(light_receiver=True),
        )
        sim.run(until=5)
        assert est["prof"].loss_estimation is LossEstimationSite.SENDER
        assert est["prof"].name == "QTPlight"
        assert est["rcv"].estimator is None  # the light receiver indeed

    def test_rejection_invokes_failure_callback(self):
        sim = Simulator(seed=1)
        d = build(sim, ScenarioSpec("t", dumbbell_spec(1)))
        failures = []
        resp = Responder(
            sim,
            CapabilitySet(estimation_sites=(LossEstimationSite.RECEIVER,)),
        ).attach(d.net.node("d0"), "conn")
        init = Initiator(
            sim, dst="d0",
            capabilities=CapabilitySet(light_receiver=True),
            on_failed=failures.append,
        ).attach(d.net.node("s0"), "conn")
        init.start()
        sim.run(until=5)
        assert failures and "sender-side" in failures[0]

    def test_offer_retransmitted_over_lossy_path(self):
        sim = Simulator(seed=6)
        lossy = ChannelSpec(kind="bernoulli", loss_rate=0.6, rng_stream="l")
        shape = chain_spec(1, rate_bps=1e6, delay=0.02, channel=lossy)
        net = build(sim, ScenarioSpec("t", shape)).net
        init, resp, est = handshake(
            sim, net.node("h0"), net.node("h1"), CapabilitySet(), CapabilitySet(),
        )
        sim.run(until=8)
        assert "snd" in est  # survived 60% control-packet loss
        assert init.attempts > 1

    def test_duplicate_offers_answered_idempotently(self):
        sim = Simulator(seed=1)
        d = build(sim, ScenarioSpec("t", dumbbell_spec(1)))
        init, resp, est = handshake(
            sim, d.net.node("s0"), d.net.node("d0"),
            CapabilitySet(), CapabilitySet(),
        )
        sim.run(until=5)
        first_profile = resp.profile
        # force another offer after establishment: must not renegotiate
        init.profile = None
        init.attempts = 0
        init._send_offer()
        sim.run(until=6)
        assert resp.profile == first_profile
