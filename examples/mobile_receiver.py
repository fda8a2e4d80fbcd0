#!/usr/bin/env python
"""QTPlight for resource-limited mobiles — the paper's §3 scenario.

A media server streams to four mobile clients over lossy wireless
spokes.  Two clients run the stock RFC 3448 receiver (loss-event
history on the device), two run QTPlight (SACK vectors only, the
sender estimates).  Cost meters show the per-packet processing and
resident memory on each device — the load the paper wants off the
mobiles.

Run:  python examples/mobile_receiver.py
"""

from repro.core.instances import QTPLIGHT, TFRC_MEDIA, build_transport_pair
from repro.metrics.cost import CostMeter
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import ChannelSpec, LinkSpec, ScenarioSpec, TopologySpec, build

DURATION = 40.0


def main() -> None:
    sim = Simulator(seed=11)
    radio = ChannelSpec(
        kind="gilbert_elliott", p_g2b=0.01, p_b2g=0.3, p_bad=0.4,
        rng_stream="radio",
    )
    spokes = tuple(
        LinkSpec("hub", f"m{i}", 2e6, 0.03, channel=radio) for i in range(4)
    )
    net = build(sim, ScenarioSpec("wireless_star", TopologySpec(spokes))).net

    clients = []
    for i in range(4):
        profile = TFRC_MEDIA if i < 2 else QTPLIGHT
        meter = CostMeter(f"m{i}")
        recorder = FlowRecorder(f"m{i}")
        snd, rcv = build_transport_pair(
            sim, net.node("hub"), net.node(f"m{i}"), f"stream-{i}", profile,
            recorder=recorder, rx_meter=meter, start=True,
        )
        clients.append((f"m{i}", profile.name, meter, recorder, rcv))

    sim.run(until=DURATION)

    print(f"{'client':8s} {'receiver':10s} {'goodput':>12s} "
          f"{'ops/pkt':>8s} {'peak state':>11s}")
    for name, proto, meter, recorder, rcv in clients:
        packets = max(1, rcv.received_packets)
        print(
            f"{name:8s} {proto:10s} "
            f"{recorder.mean_rate_bps(10, DURATION) / 1e3:9.0f} kb/s "
            f"{meter.ops / packets:8.1f} {meter.peak_bytes:9d} B"
        )
    light = [c for c in clients if c[1] == "QTPlight"]
    std = [c for c in clients if c[1] == "TFRC"]
    ratio = (
        sum(c[2].ops / max(1, c[4].received_packets) for c in std) /
        max(1e-9, sum(c[2].ops / max(1, c[4].received_packets) for c in light))
    )
    print(f"\nQTPlight mobiles do ~{ratio:.1f}x less per-packet work "
          "for the same stream quality.")


if __name__ == "__main__":
    main()
