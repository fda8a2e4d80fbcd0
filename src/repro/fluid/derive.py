"""Population → background derivation and the ``hybridize`` transform.

Two doors into hybrid fidelity:

:func:`background_from_population`
    ``PopulationSpec -> BackgroundLoadSpec(kind="population")``: expand
    the population with its own arrival/size samplers (the exact
    ``(spec, seed)`` expansion a full-fidelity run would build) and
    bin the resulting byte deposits into a per-epoch offered-load
    profile.  Use this when the background never existed as packet
    flows — e.g. the 100k-user bench, where expanding is cheap but
    simulating is not.

:func:`hybridize`
    ``ScenarioSpec -> ScenarioSpec``: split an already-composed
    scenario into packet-level foreground and fluid background.  Flows
    that came from the population (recognised by their expanded
    ``<class name><index>`` flow ids and cross-checked against the
    population) are removed and replayed as an offered-load profile
    attached to the bottleneck links' ``background`` field; everything
    else stays packet-level.  Because the profile is computed from the
    *same expanded flows* the packet-level spec carries — nothing is
    expanded a second time — both fidelities see byte-identical
    background demand; the paired equivalence tests compare exactly
    these two specs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.fluid.specs import BackgroundLoadSpec
from repro.topo.specs import FlowSpec, ScenarioSpec
from repro.traffic.population import expand_population, offered_load_profile
from repro.traffic.specs import FlowClassSpec, PopulationSpec

#: Queue kinds treated as bottlenecks when ``hybridize`` is not told
#: where to attach the background (RED/RIO mark the congestion points
#: in every DiffServ scenario in this repo).
BOTTLENECK_QUEUE_KINDS = ("red", "rio")


def background_from_population(
    population: PopulationSpec,
    seed: int,
    epoch: float = 0.05,
    per_flow_rate_bps: Optional[float] = None,
    classes: Optional[Tuple[str, ...]] = None,
    **spec_kwargs,
) -> BackgroundLoadSpec:
    """Derive a fluid background spec from a generated population.

    Expands ``(population, seed)`` once and hands the flows to
    :func:`background_from_population_flows`.  ``classes`` restricts
    the derivation to the named flow classes (default: all of them).
    ``per_flow_rate_bps`` spreads each flow's bytes at that pacing rate;
    ``None`` or ``0`` deposits them in the arrival epoch, a negative
    rate raises ``ValueError``.  Extra keyword arguments pass through
    to :class:`BackgroundLoadSpec` (``mean_pkt_bytes``,
    ``min_foreground_share``, ...).
    """
    known, selected = _select_classes(population, classes)
    flows = expand_population(population, seed)
    if classes is not None:
        flows = tuple(
            f for f in flows if _class_of(f.flow_id, known) in selected
        )
    return background_from_population_flows(
        flows, epoch, per_flow_rate_bps=per_flow_rate_bps, **spec_kwargs
    )


def hybridize(
    spec: ScenarioSpec,
    population: PopulationSpec,
    seed: int,
    background_classes: Optional[Tuple[str, ...]] = None,
    at: Optional[Iterable[Tuple[str, str]]] = None,
    epoch: float = 0.05,
    per_flow_rate_bps: Optional[float] = None,
    name: Optional[str] = None,
    **spec_kwargs,
) -> ScenarioSpec:
    """Convert a population's flows into fluid background on ``spec``.

    ``spec.flows`` must already contain the flows
    :func:`expand_population(population, seed)
    <repro.traffic.population.expand_population>` produced — the
    ``*_spec`` builders put them there — and ``hybridize`` does not
    expand again.  A flow is population-derived iff its id reads
    ``<class name><digits>`` for one of the population's classes
    (optionally restricted to ``background_classes``; the longest class
    name wins).  Each such flow is cross-checked against the population
    — its transport is the class's, its ``(src, dst)`` is one of
    ``population.endpoints``, its index is below ``n_flows`` and it has
    a ``size_bytes`` budget — and a mismatch raises ``ValueError``: the
    spec was not built from this population.  The selected flows are
    dropped from the scenario's flow tuple and replayed as a
    :class:`BackgroundLoadSpec` profile built from those very
    ``FlowSpec`` entries — start times and byte budgets included.
    Declared foreground flows (everything not matched) stay
    packet-level in their original order.

    ``seed`` is the seed ``spec`` was expanded with.  Nothing is drawn
    from it here; it names the expansion in the error messages.

    ``at`` names the ``(src, dst)`` link pairs whose forward direction
    receives the background; the default attaches it to every RED/RIO
    bottleneck link.  Markers installed for fluidized assured flows are
    left in place (an srTCM meter that never sees a packet is inert).
    """
    known, selected = _select_classes(population, background_classes)
    endpoints = set(population.endpoints)
    background = []
    foreground = []
    for flow in spec.flows:
        cname = _class_of(flow.flow_id, known)
        if cname not in selected:
            foreground.append(flow)
            continue
        if (
            flow.transport != known[cname].transport
            or (flow.src, flow.dst) not in endpoints
            or int(flow.flow_id[len(cname):]) >= population.n_flows
            or flow.size_bytes is None
        ):
            raise ValueError(
                f"scenario {spec.name!r}: flow {flow.flow_id!r} is named like "
                f"a {cname!r} flow of population {population.name!r} (seed "
                f"{seed}) but does not match it; hybridize needs the spec "
                "that population was expanded into"
            )
        background.append(flow)
    if not background:
        raise ValueError(
            f"scenario {spec.name!r} contains none of population "
            f"{population.name!r}'s flows (seed {seed}); nothing to hybridize"
        )
    targets = (
        {tuple(pair) for pair in at}
        if at is not None
        else {
            (ls.src, ls.dst)
            for ls in spec.topology.links
            if ls.queue.kind in BOTTLENECK_QUEUE_KINDS
        }
    )
    if not targets:
        raise ValueError(
            "no links to attach background to: pass at=[(src, dst), ...] "
            "or use a topology with a RED/RIO bottleneck"
        )
    link_pairs = {(ls.src, ls.dst) for ls in spec.topology.links}
    missing = sorted(targets - link_pairs)
    if missing:
        raise ValueError(f"at= names links not in the topology: {missing}")
    if "min_foreground_share" not in spec_kwargs:
        # the AF protection, enforced directly: the foreground keeps at
        # least its committed rates (plus a small fair-excess margin —
        # against a large elastic crowd the foreground's excess share
        # tends to zero) of the tightest bottleneck, exactly what
        # per-packet RIO would have protected statistically
        committed = sum(f.target_bps or 0.0 for f in foreground)
        bottleneck = min(
            ls.rate_bps
            for ls in spec.topology.links
            if (ls.src, ls.dst) in targets
        )
        spec_kwargs["min_foreground_share"] = min(
            0.95, max(0.05, committed / bottleneck + 0.05)
        )
    bg_spec = background_from_population_flows(
        background, epoch, per_flow_rate_bps=per_flow_rate_bps, **spec_kwargs
    )
    links = tuple(
        replace(ls, background=bg_spec) if (ls.src, ls.dst) in targets else ls
        for ls in spec.topology.links
    )
    topology = replace(spec.topology, links=links)
    return ScenarioSpec(
        name=name or f"{spec.name}:hybrid",
        topology=topology,
        flows=tuple(foreground),
        description=spec.description,
    )


def background_from_population_flows(
    flows: Tuple[FlowSpec, ...],
    epoch: float = 0.05,
    per_flow_rate_bps: Optional[float] = None,
    **spec_kwargs,
) -> BackgroundLoadSpec:
    """Wrap already-expanded flows into a population background spec."""
    profile = offered_load_profile(
        flows, epoch, per_flow_rate_bps=per_flow_rate_bps
    )
    # the flow classes being replaced are closed-loop transports: a
    # policed byte is retransmitted, not lost, so demand persists
    spec_kwargs.setdefault("elastic", True)
    return BackgroundLoadSpec(
        kind="population", profile=profile, epoch=epoch, **spec_kwargs
    )


def _select_classes(
    population: PopulationSpec, names: Optional[Tuple[str, ...]]
) -> Tuple[Dict[str, FlowClassSpec], Set[str]]:
    """``(classes by name, selected names)``; ``names=None`` selects all."""
    known = {cls.name: cls for cls in population.classes}
    selected = set(names) if names is not None else set(known)
    unknown = sorted(selected - set(known))
    if unknown:
        raise ValueError(
            f"population {population.name!r} has no class(es) {unknown}; "
            f"known: {sorted(known)}"
        )
    return known, selected


def _class_of(flow_id: str, class_names) -> Optional[str]:
    """Recover the class name from an expanded ``f"{name}{i}"`` flow id."""
    best = None
    for cname in class_names:
        if flow_id.startswith(cname) and flow_id[len(cname):].isdigit():
            if best is None or len(cname) > len(best):
                best = cname  # longest match wins ("mice" vs "mice2")
    return best
