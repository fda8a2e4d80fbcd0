"""T3 — receiver processing load (paper §3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instances import (
    QTPAF,
    QTPLIGHT,
    QTPLIGHT_RELIABLE,
    TFRC_MEDIA,
    build_transport_pair,
)
from repro.core.profile import TransportProfile
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.cost import CostMeter
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import ChannelSpec, ScenarioSpec, build, chain_spec

#: Named receiver compositions available to the registered sweep entry
#: (the raw scenario takes a full :class:`TransportProfile`, which is
#: not expressible in a JSON parameter grid).
RECEIVER_PROFILES = {
    "tfrc": TFRC_MEDIA,
    "qtplight": QTPLIGHT,
    "qtplight-retx": QTPLIGHT_RELIABLE,
}


@dataclass
class ReceiverLoadResult(ScenarioResult):
    """Cost-meter comparison of receiver compositions."""

    profile_name: str
    loss_rate: float
    packets: int
    rx_ops_per_packet: float
    rx_peak_bytes: int
    tx_estimator_ops_per_packet: float
    feedback_sent: int


def receiver_load_scenario(
    profile: TransportProfile,
    loss_rate: float = 0.02,
    rate_bps: float = 2e6,
    duration: float = 40.0,
    warmup: float = 10.0,
    seed: int = 0,
) -> ReceiverLoadResult:
    """Measure per-packet receiver work for one composition (paper §3).

    A single lossy link; the sender streams at up to ``rate_bps``.  The
    receiver's cost meter captures the RFC 3448 machinery (heavy) or
    the QTPlight SACK bookkeeping (light); the sender meter shows where
    QTPlight moved the work.  Meters are reset after ``warmup`` so the
    slow-start overshoot transient (a loss burst every composition
    shares) does not dominate the peak-memory column.
    """
    sim = Simulator(seed=seed)
    lossy = ChannelSpec(kind="bernoulli", loss_rate=loss_rate, rng_stream="loss")
    shape = chain_spec(
        1, rate_bps=rate_bps, delay=0.02, channel=lossy if loss_rate > 0 else None
    )
    net = build(sim, ScenarioSpec("receiver_load", shape)).net
    rx_meter = CostMeter("receiver")
    tx_meter = CostMeter("sender-estimator")
    rec = FlowRecorder()
    snd, rcv = build_transport_pair(
        sim, net.node("h0"), net.node("h1"), "flow", profile,
        recorder=rec, rx_meter=rx_meter, tx_meter=tx_meter, start=True,
    )
    packets_at_warmup = [0]

    def reset_meters() -> None:
        rx_meter.reset()
        tx_meter.reset()
        packets_at_warmup[0] = getattr(rcv, "received_packets", 0)

    sim.schedule(warmup, reset_meters)
    sim.run(until=duration)
    packets = getattr(rcv, "received_packets", 1) - packets_at_warmup[0]
    return ReceiverLoadResult(
        profile_name=profile.name,
        loss_rate=loss_rate,
        packets=packets,
        rx_ops_per_packet=rx_meter.ops / max(1, packets),
        rx_peak_bytes=rx_meter.peak_bytes,
        tx_estimator_ops_per_packet=tx_meter.ops / max(1, packets),
        feedback_sent=getattr(rcv, "feedback_sent", 0),
    )


@register(
    "receiver_load",
    grid={
        "profile": tuple(RECEIVER_PROFILES) + ("qtpaf",),
        "loss_rate": (0.0, 0.02, 0.08),
    },
    description="Per-packet receiver cost by composition name (paper §3).",
)
def receiver_load_by_name(
    profile: str = "qtplight",
    loss_rate: float = 0.02,
    rate_bps: float = 2e6,
    duration: float = 40.0,
    warmup: float = 10.0,
    seed: int = 0,
    qos_target_bps: float = 1e6,
) -> ReceiverLoadResult:
    """Sweepable adapter: resolve ``profile`` by name and run the scenario.

    ``"qtpaf"`` composes the full QoS-aware reliable instance bound to
    ``qos_target_bps`` (the factory takes the guarantee, so it cannot
    live in the static name → profile table).
    """
    if profile == "qtpaf":
        resolved = QTPAF(qos_target_bps)
    elif profile in RECEIVER_PROFILES:
        resolved = RECEIVER_PROFILES[profile]
    else:
        raise ValueError(
            f"unknown profile {profile!r}; known: "
            f"{sorted([*RECEIVER_PROFILES, 'qtpaf'])}"
        )
    return receiver_load_scenario(
        resolved,
        loss_rate=loss_rate,
        rate_bps=rate_bps,
        duration=duration,
        warmup=warmup,
        seed=seed,
    )
