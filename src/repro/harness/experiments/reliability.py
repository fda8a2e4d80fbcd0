"""T5 — reliability modes over media (paper §1/§3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.playout import PlayoutBuffer
from repro.apps.sources import MediaSource
from repro.core.instances import build_transport_pair
from repro.core.profile import (
    CongestionControl,
    LossEstimationSite,
    ReliabilityMode,
    TransportProfile,
)
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import ChannelSpec, ScenarioSpec, build, chain_spec


@dataclass
class ReliabilityResult(ScenarioResult):
    """Media delivery under one reliability mode."""

    __computed_metrics__ = ("useful_ratio",)

    mode: str
    sent: int
    delivered: int
    skipped: int
    retransmissions: int
    abandoned: int
    on_time_ratio: float
    mean_latency: float
    p95_latency: float

    @property
    def useful_ratio(self) -> float:
        """Fraction of *sent* messages that arrived before their deadline.

        The decisive media metric: NONE loses frames outright, FULL
        delivers them late; time-bounded partial reliability maximizes
        this ratio (the paper's §1 motivation for negotiable
        reliability).
        """
        if self.sent == 0:
            return 1.0
        return self.on_time_ratio * self.delivered / self.sent


def reliability_scenario(
    mode: ReliabilityMode,
    loss_rate: float = 0.03,
    rate_bps: float = 3e6,
    duration: float = 60.0,
    playout_delay: float = 0.28,
    seed: int = 0,
) -> ReliabilityResult:
    """An MPEG-like stream over a lossy link under one reliability mode.

    Shows the trade-off the paper's negotiable reliability exposes:
    NONE loses frames, FULL delivers everything but late, the partial
    modes repair what the playout deadline still allows.
    """
    sim = Simulator(seed=seed)
    lossy = ChannelSpec(kind="bernoulli", loss_rate=loss_rate, rng_stream="loss")
    shape = chain_spec(
        1, rate_bps=rate_bps, delay=0.03, channel=lossy if loss_rate > 0 else None
    )
    net = build(sim, ScenarioSpec("reliability_modes", shape)).net
    profile = TransportProfile(
        name=f"media-{mode.value}",
        congestion_control=CongestionControl.TFRC,
        reliability=mode,
        loss_estimation=LossEstimationSite.RECEIVER,
        partial_deadline=playout_delay,
        partial_max_retx=2,
    )
    playout = PlayoutBuffer()
    rec = FlowRecorder()
    snd, rcv = build_transport_pair(
        sim, net.node("h0"), net.node("h1"), "media", profile,
        recorder=rec,
        on_deliver=lambda pkt: playout.deliver(pkt, sim.now),
        bulk=False,
    )
    source = MediaSource(
        sim, snd, fps=25.0, playout_delay=playout_delay
    )
    source.start()
    sim.run(until=duration)
    latencies = rcv.app_latencies
    latencies_sorted = sorted(latencies)
    p95 = (
        latencies_sorted[int(0.95 * (len(latencies_sorted) - 1))]
        if latencies_sorted
        else 0.0
    )
    return ReliabilityResult(
        mode=mode.value,
        sent=source.messages,
        delivered=rcv.app_delivered,
        skipped=rcv.skipped_messages,
        retransmissions=snd.retransmissions,
        abandoned=snd.abandoned,
        on_time_ratio=playout.on_time_ratio(),
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        p95_latency=p95,
    )


@register(
    "reliability_modes",
    grid={"mode": tuple(m.value for m in ReliabilityMode)},
    description="Media delivery per reliability mode, by mode name (paper §1).",
)
def reliability_by_name(
    mode: str = "full",
    loss_rate: float = 0.03,
    rate_bps: float = 3e6,
    duration: float = 60.0,
    playout_delay: float = 0.28,
    seed: int = 0,
) -> ReliabilityResult:
    """Sweepable adapter: resolve ``mode`` to a :class:`ReliabilityMode`."""
    return reliability_scenario(
        ReliabilityMode(mode),
        loss_rate=loss_rate,
        rate_bps=rate_bps,
        duration=duration,
        playout_delay=playout_delay,
        seed=seed,
    )
