#!/usr/bin/env python
"""Quickstart: negotiate a transport instance and move data over a network.

Builds a dumbbell network, lets two endpoints negotiate a profile via
the wire handshake (the responder is a resource-limited mobile, so the
negotiation lands on QTPlight), and streams data for 30 simulated
seconds.

Run:  python examples/quickstart.py
"""

from repro import Simulator
from repro.core.connection import Initiator, Responder
from repro.core.negotiation import CapabilitySet
from repro.metrics.recorder import FlowRecorder
from repro.topo import QueueSpec, ScenarioSpec, build, dumbbell_spec


def main() -> None:
    sim = Simulator(seed=42)

    # -- network: 2 Mbit/s bottleneck, 20 ms one-way delay ---------------
    shape = dumbbell_spec(
        1,
        bottleneck_bps=2e6,
        bottleneck_delay=0.02,
        bottleneck_queue=QueueSpec(capacity_packets=25),
    )
    net = build(sim, ScenarioSpec("quickstart", shape)).net

    # -- endpoints advertise capabilities; the wire handshake picks the
    #    instance (the mobile cannot run the RFC 3448 loss machinery) ----
    recorder = FlowRecorder("quickstart")
    server_caps = CapabilitySet()
    mobile_caps = CapabilitySet(light_receiver=True)

    def on_receiver_ready(receiver, profile):
        print(f"negotiated instance: {profile.describe()}")

    responder = Responder(
        sim,
        mobile_caps,
        on_established=on_receiver_ready,
        receiver_kwargs={"recorder": recorder},
    ).attach(net.node("d0"), "flow-1")

    initiator = Initiator(
        sim, dst="d0", capabilities=server_caps
    ).attach(net.node("s0"), "flow-1")
    initiator.start()

    # -- run --------------------------------------------------------------
    sim.run(until=30.0)

    sender = initiator.sender
    print(f"sent packets:      {sender.sent_packets}")
    print(f"delivered packets: {recorder.delivered_packets}")
    print(f"mean goodput:      {recorder.mean_rate_bps(5, 30) / 1e6:.2f} Mbit/s "
          f"(bottleneck 2.00 Mbit/s)")
    print(f"sender rate now:   {8 * sender.rate / 1e6:.2f} Mbit/s")
    print(f"loss event rate p: {sender.estimator.loss_event_rate():.4f} "
          "(computed at the sender - QTPlight)")


if __name__ == "__main__":
    main()
