"""P1 — parking-lot / multi-bottleneck AF assurance (PR 3).

The T1 question over *two* RIO bottlenecks in series: the assured flow
crosses both hops, each hop has its own SLA conditioning and its own
greedy TCP cross burst (:func:`repro.topo.presets.parking_lot_spec`).
A guarantee that survives one conditioned bottleneck can still be
eroded multiplicatively across domains — this measures by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.sim.packet import Color
from repro.topo import build, parking_lot_spec

#: Transports accepted by the scenario.
PARKING_LOT_PROTOCOLS = ("tcp", "tfrc", "gtfrc", "qtpaf")


@dataclass
class ParkingLotResult(ScenarioResult):
    """Outcome of one multi-bottleneck AF run."""

    __computed_metrics__ = ("ratio",)

    protocol: str
    target_bps: float
    achieved_bps: float
    hop1_green_drop_ratio: float
    hop2_green_drop_ratio: float
    cross_a_bps: float
    cross_b_bps: float

    @property
    def ratio(self) -> float:
        """Achieved / negotiated — 1.0 means the end-to-end assurance held."""
        return self.achieved_bps / self.target_bps if self.target_bps else 0.0


@register(
    "parking_lot",
    grid={"protocol": ("tfrc", "gtfrc", "qtpaf"), "target_bps": (2e6, 4e6)},
)
def parking_lot_scenario(
    protocol: str,
    target_bps: float,
    n_cross_a: int = 3,
    n_cross_b: int = 3,
    bottleneck_bps: float = 10e6,
    hop2_target_bps: Optional[float] = None,
    duration: float = 40.0,
    warmup: float = 10.0,
    seed: int = 0,
) -> ParkingLotResult:
    """An assured flow across two conditioned RIO bottlenecks.

    ``n_cross_a`` TCP flows congest the first hop only, ``n_cross_b``
    the second only; the assured flow is metered at the edge and
    re-conditioned (fresh srTCM, ``hop2_target_bps``) before the second
    hop.  Returns end-to-end goodput plus per-hop green drop ratios —
    gTFRC should hold ``g`` end to end, TFRC/TCP should lose ground at
    every hop.
    """
    if protocol not in PARKING_LOT_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    sim = Simulator(seed=seed)
    built = build(
        sim,
        parking_lot_spec(
            protocol,
            target_bps,
            n_cross_a=n_cross_a,
            n_cross_b=n_cross_b,
            bottleneck_bps=bottleneck_bps,
            hop2_target_bps=hop2_target_bps,
            cross_record=True,
        ),
    )
    sim.run(until=duration)
    return ParkingLotResult(
        protocol=protocol,
        target_bps=target_bps,
        achieved_bps=built.recorder("assured").mean_rate_bps(warmup, duration),
        hop1_green_drop_ratio=built.queue("r0", "r1").stats.color_drop_ratio(
            Color.GREEN
        ),
        hop2_green_drop_ratio=built.queue("r1", "r2").stats.color_drop_ratio(
            Color.GREEN
        ),
        cross_a_bps=fold_sum(
            built.recorder(f"a{i}").mean_rate_bps(warmup, duration)
            for i in range(1, 1 + n_cross_a)
        ),
        cross_b_bps=fold_sum(
            built.recorder(f"b{i}").mean_rate_bps(warmup, duration)
            for i in range(1, 1 + n_cross_b)
        ),
    )
