"""Hybrid-fidelity population scenarios (PR 10).

The same composed population scenarios as W1/W2, runnable at two
fidelities through one parameter:

``fidelity="packet"``
    every flow is simulated packet-level — exactly the spec
    :func:`~repro.harness.experiments.flash_crowd.flash_crowd_spec` /
    :func:`~repro.harness.experiments.mice_elephants.mice_elephants_spec`
    builds;

``fidelity="hybrid"``
    the population's best-effort flows run as an aggregate fluid
    background at the RIO bottleneck while the *assured* foreground
    stays packet-level.  W1's crowd is all background, so it is derived
    straight from the population
    (:func:`repro.fluid.add_population_background`) and never exists
    as flows; W2's elephants are population flows that stay
    packet-level, so its expanded spec is split
    (:func:`repro.fluid.hybridize`).

Both fidelities share one result contract: foreground metrics are
comparable across fidelities (the paired equivalence tests in
``tests/test_fluid_equivalence.py`` compare exactly these numbers),
and the ``bg_*`` background-aggregate metrics are zero for packet runs
(there is no fluid source to account).  ``events`` makes the point of
hybrid fidelity measurable — the same population, a fraction of the
event count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fluid import add_population_background, hybridize
from repro.harness.experiments.flash_crowd import (
    FLASH_CROWD_PROTOCOLS,
    flash_crowd_foreground_spec,
    flash_crowd_population,
    flash_crowd_spec,
)
from repro.harness.experiments.mice_elephants import (
    MICE_ELEPHANTS_PROTOCOLS,
    mice_elephants_population,
    mice_elephants_spec,
)
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.fct import fct_summary
from repro.metrics.fluid import background_summary
from repro.sim.engine import Simulator
from repro.topo import build

#: The fidelities a hybrid scenario accepts.
FIDELITIES = ("hybrid", "packet")


def _check_fidelity(fidelity: str) -> None:
    if fidelity not in FIDELITIES:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )


@dataclass
class HybridFlashCrowdResult(ScenarioResult):
    """Outcome of one flash-crowd run at either fidelity."""

    __computed_metrics__ = ("ratio",)

    protocol: str
    fidelity: str
    target_bps: float
    achieved_bps: float
    events: int
    bg_offered_bytes: float
    bg_served_bytes: float
    bg_loss_ratio: float

    @property
    def ratio(self) -> float:
        """Achieved / negotiated — 1.0 means the assurance survived."""
        return self.achieved_bps / self.target_bps if self.target_bps else 0.0


@register(
    "hybrid_flash_crowd",
    grid={"protocol": ("gtfrc", "qtpaf"), "fidelity": ("hybrid", "packet")},
)
def hybrid_flash_crowd_scenario(
    protocol: str = "gtfrc",
    target_bps: float = 4e6,
    fidelity: str = "hybrid",
    n_hosts: int = 24,
    n_flows: int = 80,
    base_rate_per_s: float = 2.0,
    peak_rate_per_s: float = 40.0,
    ramp_start: float = 2.0,
    ramp_duration: float = 2.0,
    bottleneck_bps: float = 20e6,
    epoch: float = 0.05,
    bg_flow_rate_bps: float = 500e3,
    duration: float = 12.0,
    warmup: float = 2.0,
    seed: int = 0,
) -> HybridFlashCrowdResult:
    """W1 at selectable fidelity: assured elephant vs a TCP flash crowd.

    ``fidelity="hybrid"`` replays the whole crowd population as a fluid
    offered-load profile at the RIO bottleneck (the assured flow stays
    packet-level); ``fidelity="packet"`` runs the same foreground with
    every mouse of that population as a real TCP flow.  The achieved
    rate / assurance ratio are directly comparable between the two.
    """
    _check_fidelity(fidelity)
    if protocol not in FLASH_CROWD_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    crowd = dict(
        n_hosts=n_hosts,
        n_flows=n_flows,
        base_rate_per_s=base_rate_per_s,
        peak_rate_per_s=peak_rate_per_s,
        ramp_start=ramp_start,
        ramp_duration=ramp_duration,
        duration=duration,
    )
    if fidelity == "hybrid":
        # the crowd is all background: derive it from the population
        # and never build the flows (O(epochs) memory at any n_flows)
        spec = add_population_background(
            flash_crowd_foreground_spec(
                protocol,
                target_bps,
                n_hosts=n_hosts,
                bottleneck_bps=bottleneck_bps,
            ),
            flash_crowd_population(**crowd),
            seed=seed,
            epoch=epoch,
            per_flow_rate_bps=bg_flow_rate_bps,
        )
    else:
        spec = flash_crowd_spec(
            protocol,
            target_bps,
            bottleneck_bps=bottleneck_bps,
            seed=seed,
            **crowd,
        )
    sim = Simulator(seed=seed)
    built = build(sim, spec)
    sim.run(until=duration)
    bg = background_summary(built.fluid_sources.values())
    return HybridFlashCrowdResult(
        protocol=protocol,
        fidelity=fidelity,
        target_bps=target_bps,
        achieved_bps=built.recorder("assured").mean_rate_bps(warmup, duration),
        events=sim.events_processed,
        bg_offered_bytes=bg.offered_bytes,
        bg_served_bytes=bg.served_bytes,
        bg_loss_ratio=bg.loss_ratio,
    )


@dataclass
class HybridMiceElephantsResult(ScenarioResult):
    """Outcome of one mice/elephants run at either fidelity."""

    protocol: str
    fidelity: str
    target_bps: float
    n_elephants: int
    elephants_completed: int
    elephant_fct_mean_s: float
    elephant_fct_p95_s: float
    events: int
    bg_offered_bytes: float
    bg_served_bytes: float
    bg_loss_ratio: float


@register(
    "hybrid_mice_elephants",
    grid={"protocol": ("gtfrc", "qtpaf"), "fidelity": ("hybrid", "packet")},
)
def hybrid_mice_elephants_scenario(
    protocol: str = "gtfrc",
    target_bps: float = 2e6,
    fidelity: str = "hybrid",
    n_hosts: int = 32,
    n_flows: int = 150,
    arrival_rate_per_s: float = 20.0,
    elephant_share: float = 0.1,
    bottleneck_bps: float = 20e6,
    epoch: float = 0.05,
    bg_flow_rate_bps: float = 500e3,
    duration: float = 15.0,
    seed: int = 0,
) -> HybridMiceElephantsResult:
    """W2 at selectable fidelity: assured elephants amid churning mice.

    Only the best-effort ``mice`` class is fluidized
    (``background_classes=("mice",)``) — every assured elephant keeps
    its packet-level transport, srTCM meter and completion record, so
    elephant completion times are directly comparable between
    fidelities.
    """
    _check_fidelity(fidelity)
    if protocol not in MICE_ELEPHANTS_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    spec = mice_elephants_spec(
        protocol,
        target_bps,
        n_hosts=n_hosts,
        n_flows=n_flows,
        arrival_rate_per_s=arrival_rate_per_s,
        elephant_share=elephant_share,
        bottleneck_bps=bottleneck_bps,
        duration=duration,
        seed=seed,
    )
    if fidelity == "hybrid":
        population = mice_elephants_population(
            protocol,
            target_bps,
            n_hosts=n_hosts,
            n_flows=n_flows,
            arrival_rate_per_s=arrival_rate_per_s,
            elephant_share=elephant_share,
            duration=duration,
        )
        spec = hybridize(
            spec,
            population,
            seed=seed,
            background_classes=("mice",),
            epoch=epoch,
            per_flow_rate_bps=bg_flow_rate_bps,
        )
    sim = Simulator(seed=seed)
    built = build(sim, spec)
    sim.run(until=duration)
    done = built.completions()
    elephant_fct = fct_summary(
        [c for c in done if c.flow_id.startswith("elephant")]
    )
    bg = background_summary(built.fluid_sources.values())
    return HybridMiceElephantsResult(
        protocol=protocol,
        fidelity=fidelity,
        target_bps=target_bps,
        n_elephants=sum(
            1 for f in spec.flows if f.flow_id.startswith("elephant")
        ),
        elephants_completed=elephant_fct.completed,
        elephant_fct_mean_s=elephant_fct.mean,
        elephant_fct_p95_s=elephant_fct.p95,
        events=sim.events_processed,
        bg_offered_bytes=bg.offered_bytes,
        bg_served_bytes=bg.served_bytes,
        bg_loss_ratio=bg.loss_ratio,
    )
