"""T6 — versatility: one stack, many negotiated instances (paper §1).

Regenerates the negotiation matrix (which capability pairs produce
which instance) via the registered ``negotiation`` scenario driven
through :class:`repro.api.Experiment`, and measures the cost of
versatility itself: the time to negotiate and to compose a transport
pair, and the wire handshake's one-round-trip establishment.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.core.connection import Initiator, Responder
from repro.core.negotiation import CapabilitySet, negotiate
from repro.core.instances import TFRC_MEDIA, build_transport_pair
from repro.harness.experiments.negotiation_matrix import NEGOTIATION_PAIRS
from repro.harness.tables import format_table
from repro.sim.engine import Simulator
from repro.topo import ScenarioSpec, build, dumbbell_spec


pytestmark = pytest.mark.slow


def test_t6_matrix(benchmark):
    results = (
        Experiment("negotiation")
        .sweep(pair=NEGOTIATION_PAIRS)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )
    rows = []
    for r in results.results:
        rows.append(
            [r.pair, r.instance, r.congestion_control, r.reliability, r.estimation]
        )
    emit_table(
        "t6_negotiation",
        format_table(
            ["endpoints", "instance", "cc", "reliability", "estimation"],
            rows,
            title="T6: negotiated instance per capability pair",
        ),
    )
    benchmark(negotiate, CapabilitySet(), CapabilitySet(light_receiver=True))


def test_t6_composition_overhead(benchmark):
    """Time to build a composed transport pair (the versatility tax)."""
    sim = Simulator(seed=0)
    d = build(sim, ScenarioSpec("t6", dumbbell_spec(1)))
    counter = [0]

    def compose():
        counter[0] += 1
        flow = f"f{counter[0]}"
        return build_transport_pair(
            sim, d.net.node("s0"), d.net.node("d0"), flow, TFRC_MEDIA
        )

    benchmark(compose)


def test_t6_handshake_one_round_trip(benchmark):
    """Wire-level establishment completes in ~1 RTT."""

    def establish():
        sim = Simulator(seed=1)
        shape = dumbbell_spec(
            1, bottleneck_bps=10e6, bottleneck_delay=0.02, access_delay=0.002
        )
        d = build(sim, ScenarioSpec("t6", shape))
        done = {}
        Responder(
            sim, CapabilitySet(),
            on_established=lambda rcv, prof: done.update(t=sim.now),
        ).attach(d.net.node("d0"), "conn")
        init = Initiator(sim, dst="d0", capabilities=CapabilitySet()).attach(
            d.net.node("s0"), "conn"
        )
        init.start()
        sim.run(until=2.0)
        assert done, "handshake did not complete"
        return done["t"]

    establishment_time = benchmark(establish)
    rtt = 2 * (0.02 + 2 * 0.002)
    assert establishment_time <= 2 * rtt
