"""F1 — throughput smoothness: TFRC vs TCP (paper §2/§3 motivation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.recorder import warmup_bins
from repro.metrics.stats import coefficient_of_variation
from repro.sim.engine import Simulator
from repro.topo import FlowSpec, QueueSpec, ScenarioSpec, build, dumbbell_spec


@dataclass
class SmoothnessResult(ScenarioResult):
    """Throughput series and its coefficient of variation."""

    protocol: str
    mean_bps: float
    cov: float
    series_bps: List[float] = field(repr=False, default_factory=list)


@register(
    "smoothness",
    grid={"protocol": ("tfrc", "tcp"), "seed": (0, 1, 2)},
)
def smoothness_scenario(
    protocol: str,
    bottleneck_bps: float = 4e6,
    duration: float = 120.0,
    warmup: float = 20.0,
    bin_width: float = 0.2,
    seed: int = 0,
) -> SmoothnessResult:
    """One measured flow + one TCP competitor over a RED bottleneck.

    The paper's motivation (§2/§3): TFRC's equation-driven rate is much
    smoother than TCP's AIMD sawtooth under identical conditions.  A
    RED queue keeps the bottleneck buffer short so the receiver-side
    throughput actually exposes the sender's sawtooth (a deep DropTail
    buffer would smooth it away).
    """
    sim = Simulator(seed=seed)
    red = QueueSpec(
        kind="red", min_th=5, max_th=20, max_p=0.1, capacity_packets=60,
        rng_stream="red",
    )
    shape = dumbbell_spec(
        2, bottleneck_bps=bottleneck_bps, bottleneck_delay=0.02, bottleneck_queue=red
    )
    flows = (
        FlowSpec("probe", "s0", "d0", transport=protocol),
        FlowSpec("cross", "s1", "d1", transport="tcp"),
    )
    built = build(sim, ScenarioSpec("smoothness", shape, flows))
    sim.run(until=duration)
    rec = built.recorder("probe")
    steady = rec.series(bin_width, end=duration)[warmup_bins(warmup, bin_width):]
    return SmoothnessResult(
        protocol=protocol,
        mean_bps=rec.mean_rate_bps(warmup, duration),
        cov=coefficient_of_variation(steady),
        series_bps=[8 * v for v in steady],
    )
