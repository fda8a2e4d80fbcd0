#!/usr/bin/env python
"""QTPAF over a DiffServ/AF network — the paper's §4 scenario.

A streaming server negotiates a 5 Mbit/s assurance with the network's
admission controller, gets an srTCM edge meter for its SLA, and runs
QTPAF (gTFRC + SACK full reliability) across a RIO bottleneck shared
with 8 greedy best-effort TCP flows.  A plain TCP flow with the same
reservation is run for comparison — it fails to use its reservation,
QTPAF nails it.

Run:  python examples/qos_streaming.py
"""

from repro.metrics.recorder import FlowRecorder
from repro.qos.sla import AdmissionController, ServiceLevelAgreement
from repro.sim.engine import Simulator
from repro.sim.packet import Color
from repro.topo import (
    FlowSpec,
    MarkerSpec,
    QueueSpec,
    ScenarioSpec,
    SlaSpec,
    build,
    dumbbell_spec,
)

TARGET_BPS = 5e6
BOTTLENECK_BPS = 10e6
N_CROSS = 8
DURATION = 40.0
WARMUP = 10.0


def run(protocol: str) -> FlowRecorder:
    """One run with the assured flow carried by ``protocol``."""
    sim = Simulator(seed=7)

    # -- negotiate the SLA with the network ------------------------------
    admission = AdmissionController(BOTTLENECK_BPS, overprovision_factor=0.9)
    sla = admission.admit(
        ServiceLevelAgreement("assured", TARGET_BPS, burst_bytes=30_000)
    )
    edge_meter = MarkerSpec(
        sla=SlaSpec("assured", sla.committed_rate_bps, burst_bytes=sla.burst_bytes)
    )

    shape = dumbbell_spec(
        1 + N_CROSS,
        bottleneck_bps=BOTTLENECK_BPS,
        bottleneck_delay=0.02,
        bottleneck_queue=QueueSpec(kind="rio"),
        access_delays=[0.1] + [0.002] * N_CROSS,  # long-RTT assured path
        access_markers=[edge_meter] + [None] * N_CROSS,
    )
    flows = [
        FlowSpec(
            "assured", "s0", "d0",
            transport=protocol, target_bps=sla.committed_rate_bps,
        )
    ]
    flows += [
        FlowSpec(f"x{i}", f"s{i}", f"d{i}", transport="tcp", record=False)
        for i in range(1, 1 + N_CROSS)
    ]
    built = build(sim, ScenarioSpec("qos_streaming", shape, tuple(flows)))

    sim.run(until=DURATION)
    stats = built.queue("left", "right").stats
    green_drops = stats.drops_by_color[Color.GREEN]
    print(f"  [{protocol}] in-profile drops at the bottleneck: {green_drops}")
    return built.recorder("assured")


def main() -> None:
    print(f"SLA: {TARGET_BPS / 1e6:.0f} Mbit/s assured of "
          f"{BOTTLENECK_BPS / 1e6:.0f} Mbit/s, {N_CROSS} greedy TCP cross flows")
    for protocol in ("tcp", "qtpaf"):
        rec = run(protocol)
        achieved = rec.mean_rate_bps(WARMUP, DURATION)
        print(f"  [{protocol}] achieved {achieved / 1e6:.2f} Mbit/s "
              f"= {achieved / TARGET_BPS:.0%} of the negotiated rate\n")


if __name__ == "__main__":
    main()
