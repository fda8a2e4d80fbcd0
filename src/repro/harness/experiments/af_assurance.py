"""T1/T2 — AF bandwidth assurance (paper §4).

An assured flow holding an AF reservation (srTCM edge marker + RIO
bottleneck) against greedy best-effort TCP cross traffic; the paper's
central experiment.  The dumbbell itself is the shared
:func:`repro.topo.presets.t1_dumbbell_spec` compiled by
:func:`repro.topo.build` (goldens pin the construction order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.sim.packet import Color
from repro.topo import build, t1_dumbbell_spec

#: Protocol labels accepted by the scenarios.
AF_PROTOCOLS = ("tcp", "tfrc", "gtfrc", "qtpaf")


@dataclass
class AfResult(ScenarioResult):
    """Outcome of one AF-assurance run."""

    __computed_metrics__ = ("ratio",)

    protocol: str
    target_bps: float
    achieved_bps: float
    green_drop_ratio: float
    out_drop_ratio: float
    cross_total_bps: float

    @property
    def ratio(self) -> float:
        """Achieved / negotiated — 1.0 means the assurance held."""
        return self.achieved_bps / self.target_bps if self.target_bps else 0.0


@register(
    "af_assurance",
    grid={"protocol": AF_PROTOCOLS, "target_bps": (2e6, 4e6, 6e6, 8e6)},
)
def af_dumbbell_scenario(
    protocol: str,
    target_bps: float,
    n_cross: int = 4,
    bottleneck_bps: float = 10e6,
    bottleneck_delay: float = 0.02,
    access_delay: float = 0.002,
    duration: float = 60.0,
    warmup: float = 10.0,
    seed: int = 0,
    assured_access_delay: Optional[float] = None,
) -> AfResult:
    """The paper's §4 experiment: an assured flow against TCP cross traffic.

    One flow holds an AF reservation of ``target_bps`` (srTCM edge
    marker + RIO bottleneck); ``n_cross`` greedy best-effort TCP flows
    congest the same bottleneck.  Returns the assured flow's achieved
    goodput and the bottleneck drop ratios per precedence.

    ``protocol`` selects the assured flow's transport: "tcp" (the
    Seddigh failure case), "tfrc" (no QoS-awareness), "gtfrc"
    (QoS-aware rate control only) or "qtpaf" (gTFRC + full
    reliability — the paper's instance).
    """
    if protocol not in AF_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    sim = Simulator(seed=seed)
    built = build(
        sim,
        t1_dumbbell_spec(
            protocol,
            target_bps,
            n_cross=n_cross,
            bottleneck_bps=bottleneck_bps,
            bottleneck_delay=bottleneck_delay,
            access_delay=access_delay,
            assured_access_delay=assured_access_delay,
            cross_record=True,
        ),
    )
    sim.run(until=duration)
    stats = built.queue("left", "right").stats
    green_offered = (
        stats.accepts_by_color[Color.GREEN] + stats.drops_by_color[Color.GREEN]
    )
    out_offered = stats.offered - green_offered
    out_drops = stats.dropped - stats.drops_by_color[Color.GREEN]
    return AfResult(
        protocol=protocol,
        target_bps=target_bps,
        achieved_bps=built.recorder("assured").mean_rate_bps(warmup, duration),
        green_drop_ratio=stats.color_drop_ratio(Color.GREEN),
        out_drop_ratio=out_drops / out_offered if out_offered else 0.0,
        cross_total_bps=fold_sum(
            built.recorder(f"x{i}").mean_rate_bps(warmup, duration)
            for i in range(1, 1 + n_cross)
        ),
    )
