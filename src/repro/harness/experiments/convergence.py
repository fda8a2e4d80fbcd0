"""F5 — recovery of the guaranteed rate after a congestion step (paper §4).

At ``step_time`` a burst of greedy TCP flows joins the AF bottleneck
(the shared :func:`repro.topo.presets.t1_dumbbell_spec`, with the cross
flows' start deferred).  Plain TFRC reacts to the resulting
(out-of-profile) losses and dips far below the reservation, taking
seconds to crawl back; gTFRC's floor keeps the assured flow at ``g``
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.topo import build, t1_dumbbell_spec


@dataclass
class ConvergenceResult(ScenarioResult):
    """Assured-flow throughput around a congestion step."""

    protocol: str
    target_bps: float
    min_after_step: float
    time_below_90pct: float  # seconds spent below 0.9 g (1 s bins)
    mean_after_step: float
    series_bps: List[float] = field(repr=False, default_factory=list)


@register(
    "convergence",
    grid={"protocol": ("tfrc", "gtfrc")},
)
def convergence_scenario(
    protocol: str,
    target_bps: float = 5e6,
    step_time: float = 20.0,
    duration: float = 60.0,
    n_cross: int = 8,
    seed: int = 3,
) -> ConvergenceResult:
    """One assured flow; ``n_cross`` TCP flows join at ``step_time``."""
    # a zero step would degenerate into plain af_assurance with an
    # ill-defined start interleaving; the spec layer starts flows with
    # start == 0 during the build, so require a real post-start step
    if step_time <= 0:
        raise ValueError("step_time must be positive")
    if int(step_time) + 1 >= duration:
        raise ValueError(
            f"step_time={step_time!r} leaves no measurement window before "
            f"duration={duration!r}; need step_time + 1 s < duration"
        )
    sim = Simulator(seed=seed)
    built = build(
        sim,
        t1_dumbbell_spec(
            protocol,
            target_bps,
            n_cross=n_cross,
            assured_access_delay=0.1,
            cross_start=step_time,
        ),
    )
    sim.run(until=duration)
    series = built.recorder("assured").series(1.0, end=duration)  # bytes/s per bin
    series_bps = [8 * v for v in series]
    after = series_bps[int(step_time) + 1:]
    if not after:
        # nothing delivered at all (series() returns [] with no events):
        # the post-step rate is identically zero, not a crash
        after = [0.0]
    below = [v for v in after if v < 0.9 * target_bps]
    return ConvergenceResult(
        protocol=protocol,
        target_bps=target_bps,
        min_after_step=min(after),
        time_below_90pct=float(len(below)),  # 1 s bins
        mean_after_step=fold_sum(after) / len(after),
        series_bps=series_bps,
    )
