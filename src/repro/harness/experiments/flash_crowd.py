"""W1 — flash crowd vs an assured elephant (PR 6).

The first *generated-population* scenario: one long-lived assured
gTFRC/QTPAF flow shares an access-star RIO uplink with a flash crowd
of short TCP mice whose arrival rate ramps from a trickle to a spike
(:class:`repro.traffic.specs.ArrivalSpec` ``flash_crowd``).  The paper
question at population scale: does the DiffServ guarantee hold through
a synchronized arrival surge, and what completion times do the mice
see around it?
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.fct import fct_summary
from repro.sim.engine import Simulator
from repro.topo import ScenarioSpec, build
from repro.topo.generators import access_star_endpoints, access_star_spec
from repro.topo.specs import FlowSpec, MarkerSpec, SlaSpec, TopologySpec
from repro.traffic import (
    ArrivalSpec,
    FlowClassSpec,
    PopulationSpec,
    SizeSpec,
    expand_population,
)

#: Transports accepted for the assured flow.
FLASH_CROWD_PROTOCOLS = ("tfrc", "gtfrc", "qtpaf")


def flash_crowd_population(
    *,
    n_hosts: int = 24,
    n_flows: int = 80,
    base_rate_per_s: float = 2.0,
    peak_rate_per_s: float = 40.0,
    ramp_start: float = 2.0,
    ramp_duration: float = 2.0,
    mouse_min_kbytes: float = 8.0,
    mouse_max_kbytes: float = 200.0,
    duration: float = 12.0,
) -> PopulationSpec:
    """The crowd population, shared by the packet-level spec and the
    hybrid scenario (``repro.fluid`` derives the background from the
    same spec the expansion comes from)."""
    return PopulationSpec(
        name="crowd",
        arrival=ArrivalSpec(
            kind="flash_crowd",
            base_rate_per_s=base_rate_per_s,
            peak_rate_per_s=peak_rate_per_s,
            ramp_start=ramp_start,
            ramp_duration=ramp_duration,
        ),
        classes=(
            FlowClassSpec(
                "mouse",
                1.0,
                "tcp",
                SizeSpec(
                    kind="pareto",
                    alpha=1.3,
                    min_bytes=int(mouse_min_kbytes * 1000),
                    max_bytes=int(mouse_max_kbytes * 1000),
                ),
            ),
        ),
        endpoints=access_star_endpoints(n_hosts)[1:],  # h0 is the elephant's
        n_flows=n_flows,
        horizon=duration,
    )


def flash_crowd_foreground_spec(
    protocol: str,
    target_bps: float,
    *,
    n_hosts: int = 24,
    bottleneck_bps: float = 20e6,
) -> ScenarioSpec:
    """The scenario without its crowd: access star + the assured flow.

    Host ``h0`` carries the assured flow.  :func:`flash_crowd_spec`
    adds the crowd as packet-level flows;
    :func:`repro.fluid.add_population_background` adds it as fluid.
    """
    if protocol not in FLASH_CROWD_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    topology = access_star_spec(n_hosts, bottleneck_bps=bottleneck_bps)
    # Condition the assured flow at its access link regardless of
    # protocol — the T1 convention: stock TFRC holds the same SLA, it
    # just cannot exploit it (the crowd is all best-effort TCP, so
    # there is nothing else to condition).
    links = list(topology.links)
    for idx, link in enumerate(links):
        if link.src == "h0":
            links[idx] = replace(
                link,
                marker=MarkerSpec(
                    sla=SlaSpec("assured", target_bps, burst_bytes=30_000.0)
                ),
            )
            break
    assured = FlowSpec(
        "assured", "h0", "srv", transport=protocol, target_bps=target_bps
    )
    return ScenarioSpec(
        name="flash_crowd",
        topology=TopologySpec(links=tuple(links), nodes=topology.nodes),
        flows=(assured,),
        description="assured flow vs a generated TCP flash crowd",
    )


def flash_crowd_spec(
    protocol: str,
    target_bps: float,
    *,
    n_hosts: int = 24,
    n_flows: int = 80,
    base_rate_per_s: float = 2.0,
    peak_rate_per_s: float = 40.0,
    ramp_start: float = 2.0,
    ramp_duration: float = 2.0,
    mouse_min_kbytes: float = 8.0,
    mouse_max_kbytes: float = 200.0,
    bottleneck_bps: float = 20e6,
    duration: float = 12.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Compose the flash-crowd scenario spec (topology + flows).

    :func:`flash_crowd_foreground_spec` plus the expanded crowd
    population, which draws its endpoints from the hosts other than
    ``h0``.  The expansion is a pure function of ``(parameters, seed)``
    — the traffic goldens pin it.
    """
    foreground = flash_crowd_foreground_spec(
        protocol, target_bps, n_hosts=n_hosts, bottleneck_bps=bottleneck_bps
    )
    population = flash_crowd_population(
        n_hosts=n_hosts,
        n_flows=n_flows,
        base_rate_per_s=base_rate_per_s,
        peak_rate_per_s=peak_rate_per_s,
        ramp_start=ramp_start,
        ramp_duration=ramp_duration,
        mouse_min_kbytes=mouse_min_kbytes,
        mouse_max_kbytes=mouse_max_kbytes,
        duration=duration,
    )
    return replace(
        foreground,
        flows=foreground.flows + expand_population(population, seed),
    )


@dataclass
class FlashCrowdResult(ScenarioResult):
    """Outcome of one flash-crowd run."""

    __computed_metrics__ = ("ratio",)

    protocol: str
    target_bps: float
    achieved_bps: float
    crowd_flows: int
    crowd_completed: int
    fct_mean_s: float
    fct_p95_s: float
    bottleneck_drops: int

    @property
    def ratio(self) -> float:
        """Achieved / negotiated — 1.0 means the assurance survived."""
        return self.achieved_bps / self.target_bps if self.target_bps else 0.0


@register(
    "flash_crowd",
    grid={"protocol": ("gtfrc", "qtpaf"), "peak_rate_per_s": (20.0, 40.0)},
)
def flash_crowd_scenario(
    protocol: str = "gtfrc",
    target_bps: float = 4e6,
    n_hosts: int = 24,
    n_flows: int = 80,
    base_rate_per_s: float = 2.0,
    peak_rate_per_s: float = 40.0,
    ramp_start: float = 2.0,
    ramp_duration: float = 2.0,
    bottleneck_bps: float = 20e6,
    duration: float = 12.0,
    warmup: float = 2.0,
    seed: int = 0,
) -> FlashCrowdResult:
    """One assured elephant vs a generated TCP flash crowd.

    The crowd's arrival rate ramps ``base_rate_per_s ->
    peak_rate_per_s`` starting at ``ramp_start``; every mouse is a
    finite truncated-Pareto-sized TCP flow that departs when its bytes
    are acknowledged.  Reports the elephant's achieved rate (and the
    assurance ratio), the crowd's completion statistics and the
    bottleneck drop count.
    """
    sim = Simulator(seed=seed)
    spec = flash_crowd_spec(
        protocol,
        target_bps,
        n_hosts=n_hosts,
        n_flows=n_flows,
        base_rate_per_s=base_rate_per_s,
        peak_rate_per_s=peak_rate_per_s,
        ramp_start=ramp_start,
        ramp_duration=ramp_duration,
        bottleneck_bps=bottleneck_bps,
        duration=duration,
        seed=seed,
    )
    built = build(sim, spec)
    sim.run(until=duration)
    fct = fct_summary(built.completions())
    return FlashCrowdResult(
        protocol=protocol,
        target_bps=target_bps,
        achieved_bps=built.recorder("assured").mean_rate_bps(warmup, duration),
        crowd_flows=len(spec.flows) - 1,
        crowd_completed=fct.completed,
        fct_mean_s=fct.mean,
        fct_p95_s=fct.p95,
        bottleneck_drops=built.queue("gw", "srv").stats.dropped,
    )
