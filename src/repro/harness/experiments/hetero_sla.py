"""P3 — heterogeneous SLAs inside one AF class (PR 3).

Several assured flows with *different* committed rates share one RIO
bottleneck (:func:`repro.topo.presets.hetero_sla_dumbbell_spec`),
alongside best-effort TCP.  RIO only distinguishes in/out of profile,
not *whose* profile — so the question is whether a small guarantee is
as safe as a large one, or whether the out-of-profile scramble favours
the big reservations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.stats import fold_sum, jain_index
from repro.sim.engine import Simulator
from repro.topo import build, hetero_sla_dumbbell_spec

#: Transports accepted by the scenario.
HETERO_SLA_PROTOCOLS = ("tfrc", "gtfrc", "qtpaf")


@dataclass
class HeteroSlaResult(ScenarioResult):
    """Outcome of one mixed-guarantee run (ratios are achieved/target)."""

    protocol: str
    targets_mbps: str
    total_target_bps: float
    total_assured_bps: float
    min_ratio: float
    max_ratio: float
    mean_ratio: float
    jain_fairness: float  # of the per-flow assurance ratios
    cross_total_bps: float


def _parse_targets(targets_mbps: str) -> tuple:
    try:
        targets = tuple(
            float(tok) * 1e6 for tok in targets_mbps.split(",") if tok.strip()
        )
    except ValueError:
        raise ValueError(
            f"targets_mbps must be comma-separated numbers, got {targets_mbps!r}"
        ) from None
    if not targets or any(t <= 0 for t in targets):
        raise ValueError(f"need positive targets, got {targets_mbps!r}")
    return targets


@register(
    "hetero_sla",
    grid={
        "protocol": ("gtfrc", "qtpaf"),
        "targets_mbps": ("1,2,4", "2,2,2", "1,1,6"),
    },
)
def hetero_sla_scenario(
    protocol: str,
    targets_mbps: str = "1,2,4",
    n_cross: int = 2,
    bottleneck_bps: float = 10e6,
    duration: float = 40.0,
    warmup: float = 10.0,
    seed: int = 0,
) -> HeteroSlaResult:
    """Mixed committed rates competing for one AF class.

    ``targets_mbps`` is a comma list (the registry needs JSON-scalar
    parameters): flow ``af{i}`` gets an SLA of ``targets[i]`` Mbit/s
    and its own edge meter.  Returns per-flow assurance ratios
    summarized as min/max/mean plus Jain's fairness index over the
    ratios — 1.0 means every guarantee held equally well regardless of
    its size.
    """
    if protocol not in HETERO_SLA_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    targets = _parse_targets(targets_mbps)
    sim = Simulator(seed=seed)
    built = build(
        sim,
        hetero_sla_dumbbell_spec(
            protocol, targets, n_cross=n_cross, bottleneck_bps=bottleneck_bps
        ),
    )
    sim.run(until=duration)
    achieved = [
        built.recorder(f"af{i}").mean_rate_bps(warmup, duration)
        for i in range(len(targets))
    ]
    ratios = [a / target for a, target in zip(achieved, targets)]
    return HeteroSlaResult(
        protocol=protocol,
        targets_mbps=targets_mbps,
        total_target_bps=fold_sum(targets),
        total_assured_bps=fold_sum(achieved),
        min_ratio=min(ratios),
        max_ratio=max(ratios),
        mean_ratio=fold_sum(ratios) / len(ratios),
        jain_fairness=jain_index(ratios),
        cross_total_bps=fold_sum(
            built.recorder(f"x{j}").mean_rate_bps(warmup, duration)
            for j in range(1, 1 + n_cross)
        ),
    )
