"""Population → background derivation: the two doors into hybrid fidelity.

Both reduce a :class:`~repro.traffic.specs.PopulationSpec` to a
per-epoch offered-load profile on the bottleneck links, and both are
the same function of ``(population, seed)`` — one draw loop
(``repro.traffic.population``) and one binning loop feed them, and the
tests hold their outputs equal.

Door 1 — derive from the population
    :func:`background_from_population` (``PopulationSpec ->
    BackgroundLoadSpec(kind="population")``) streams the population's
    draws straight into the profile: every arrival is drawn exactly as
    a full-fidelity expansion would draw it, contributes its ``(start,
    size_bytes)`` deposit and is gone, so memory is O(epochs), not
    O(flows).  :func:`add_population_background` attaches that
    background to a *foreground-only* scenario.  Use this door when the
    background never needs to exist as packet flows — what the
    registered ``hybrid_flash_crowd`` scenario does for its 100k users.

Door 2 — transform a spec you already hold
    :func:`hybridize` (``ScenarioSpec -> ScenarioSpec``) splits an
    already-composed scenario into packet-level foreground and fluid
    background.  Flows that came from the population (recognised by
    their expanded ``<class name><index>`` flow ids and cross-checked
    against the population) are removed and replayed as the profile;
    everything else stays packet-level.  The profile is computed from
    the *same expanded flows* the packet-level spec carries — nothing
    is expanded a second time — so both fidelities see byte-identical
    background demand; the paired equivalence tests compare exactly
    these two specs.  Use it when part of the population stays
    packet-level (``hybrid_mice_elephants``: the assured elephants are
    population flows that need their ``FlowSpec``s and SLA markers).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.fluid.specs import BackgroundLoadSpec
from repro.topo.specs import FlowSpec, ScenarioSpec
# ``expand_population`` is not called here; perf/workloads.py wraps it
# through this module's namespace (KeyError otherwise), so it stays.
from repro.traffic.population import (  # noqa: F401
    _population_draws,
    bin_offered_load,
    expand_population,
    flow_deposits,
)
from repro.traffic.specs import FlowClassSpec, PopulationSpec

#: Queue kinds treated as bottlenecks when the background is not told
#: where to attach (RED/RIO mark the congestion points in every
#: DiffServ scenario in this repo).
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

    Streams the draws of ``(population, seed)`` — the ones
    :func:`~repro.traffic.population.expand_population` would wrap in
    ``FlowSpec``s — into the offered-load profile without building a
    flow.  ``classes`` restricts the derivation to the named flow
    classes (default: all of them); the other classes' arrivals are
    still drawn, so the selected ones are the flows a full expansion
    yields.  ``per_flow_rate_bps`` spreads each flow's bytes at that
    pacing rate; ``None`` or ``0`` deposits them in the arrival epoch,
    a negative rate raises ``ValueError``.  Extra keyword arguments
    pass through to :class:`BackgroundLoadSpec` (``mean_pkt_bytes``,
    ``min_foreground_share``, ...).
    """
    _, selected = _select_classes(population, classes)
    return _population_background(
        _population_deposits(population, seed, selected),
        epoch, per_flow_rate_bps, **spec_kwargs,
    )


def add_population_background(
    spec: ScenarioSpec,
    population: PopulationSpec,
    seed: int,
    classes: Optional[Tuple[str, ...]] = None,
    at: Optional[Iterable[Tuple[str, str]]] = None,
    epoch: float = 0.05,
    per_flow_rate_bps: Optional[float] = None,
    name: Optional[str] = None,
    **spec_kwargs,
) -> ScenarioSpec:
    """Attach a population's fluid background to a foreground-only spec.

    Door 1 as a scenario transform: ``spec`` holds only the flows that
    stay packet-level, and the background of
    :func:`background_from_population(population, seed, ...)
    <background_from_population>` lands on the ``at`` links (default:
    every RED/RIO bottleneck) — the spec :func:`hybridize` returns for
    ``spec`` plus the expanded population, without that expansion ever
    existing.  A ``spec`` that already carries a flow of a selected
    class would have it counted twice, packet-level and fluid, and is
    refused: that caller wants :func:`hybridize`.
    """
    known, selected = _select_classes(population, classes)
    for flow in spec.flows:
        if _class_of(flow.flow_id, known) in selected:
            raise ValueError(
                f"scenario {spec.name!r} already carries flow "
                f"{flow.flow_id!r} of population {population.name!r}; "
                "attaching the population's background as well would count "
                "it twice (use hybridize to convert expanded flows)"
            )
    return _attach_background(
        spec, spec.flows, _population_deposits(population, seed, selected),
        at, epoch, per_flow_rate_bps, name, spec_kwargs,
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
    return _attach_background(
        spec, tuple(foreground), flow_deposits(background),
        at, epoch, per_flow_rate_bps, name, spec_kwargs,
    )


def background_from_population_flows(
    flows: Iterable[FlowSpec],
    epoch: float = 0.05,
    per_flow_rate_bps: Optional[float] = None,
    **spec_kwargs,
) -> BackgroundLoadSpec:
    """Wrap already-expanded flows into a population background spec."""
    return _population_background(
        flow_deposits(flows), epoch, per_flow_rate_bps, **spec_kwargs
    )


def _population_deposits(
    population: PopulationSpec, seed: int, selected: Set[str]
) -> Iterator[Tuple[float, int]]:
    """``(start, size_bytes)`` of each drawn arrival of a selected class."""
    for cname, _, _, _, _, _, _, start, size in _population_draws(
        population, seed
    ):
        if cname in selected:
            yield start, size


def _population_background(
    deposits: Iterable[Tuple[float, int]],
    epoch: float,
    per_flow_rate_bps: Optional[float],
    **spec_kwargs,
) -> BackgroundLoadSpec:
    profile = bin_offered_load(
        deposits, epoch, per_flow_rate_bps=per_flow_rate_bps
    )
    # the flow classes being replaced are closed-loop transports: a
    # policed byte is retransmitted, not lost, so demand persists
    spec_kwargs.setdefault("elastic", True)
    return BackgroundLoadSpec(
        kind="population", profile=profile, epoch=epoch, **spec_kwargs
    )


def _attach_background(
    spec: ScenarioSpec,
    foreground: Tuple[FlowSpec, ...],
    deposits: Iterable[Tuple[float, int]],
    at: Optional[Iterable[Tuple[str, str]]],
    epoch: float,
    per_flow_rate_bps: Optional[float],
    name: Optional[str],
    spec_kwargs: dict,
) -> ScenarioSpec:
    """The tail both scenario doors share: ``spec`` with ``foreground``
    as its flows and ``deposits`` as fluid background on its ``at``
    links.  ``deposits`` is consumed only after ``at`` is validated."""
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
    bg_spec = _population_background(
        deposits, epoch, per_flow_rate_bps, **spec_kwargs
    )
    links = tuple(
        replace(ls, background=bg_spec) if (ls.src, ls.dst) in targets else ls
        for ls in spec.topology.links
    )
    return ScenarioSpec(
        name=name or f"{spec.name}:hybrid",
        topology=replace(spec.topology, links=links),
        flows=foreground,
        description=spec.description,
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
