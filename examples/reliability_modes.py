#!/usr/bin/env python
"""Negotiable reliability over a lossy path — the paper's §1 feature (1).

Streams a 25 fps MPEG-like source (I/P/B frames with 350 ms playout
deadlines) over a 3%-lossy link under each reliability mode and prints
the trade-off: NONE drops frames, FULL repairs them late, the partial
modes repair exactly what the deadline still allows.

Run:  python examples/reliability_modes.py
"""

from repro.apps.playout import PlayoutBuffer
from repro.apps.sources import MediaSource
from repro.core.instances import build_transport_pair
from repro.core.profile import ReliabilityMode, TransportProfile
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import ChannelSpec, ScenarioSpec, build, chain_spec

DURATION = 40.0
PLAYOUT = 0.35


def run(mode: ReliabilityMode):
    sim = Simulator(seed=5)
    lossy = ChannelSpec(kind="bernoulli", loss_rate=0.03, rng_stream="loss")
    shape = chain_spec(1, rate_bps=3e6, delay=0.03, channel=lossy)
    net = build(sim, ScenarioSpec("lossy_link", shape)).net
    profile = TransportProfile(
        name=f"media-{mode.value}",
        reliability=mode,
        partial_deadline=PLAYOUT,
        partial_max_retx=2,
    )
    playout = PlayoutBuffer()
    recorder = FlowRecorder()
    sender, receiver = build_transport_pair(
        sim, net.node("h0"), net.node("h1"), "media", profile,
        recorder=recorder,
        on_deliver=lambda pkt: playout.deliver(pkt, sim.now),
        bulk=False,
    )
    source = MediaSource(sim, sender, fps=25, playout_delay=PLAYOUT)
    source.start()
    sim.run(until=DURATION)
    useful = playout.on_time / max(1, source.messages)
    return source, sender, receiver, playout, useful


def main() -> None:
    print(f"{'mode':14s} {'sent':>5s} {'delivered':>9s} {'retx':>5s} "
          f"{'late':>5s} {'useful':>7s}")
    for mode in ReliabilityMode:
        source, sender, receiver, playout, useful = run(mode)
        print(
            f"{mode.value:14s} {source.messages:5d} "
            f"{receiver.delivered_in_order:9d} {sender.retransmissions:5d} "
            f"{playout.late:5d} {useful:6.1%}"
        )
    print("\n'useful' = fraction of sent frames played before their deadline;")
    print("time-bounded partial reliability dominates both extremes.")


if __name__ == "__main__":
    main()
