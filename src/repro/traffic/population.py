"""Population expander: ``PopulationSpec -> tuple[FlowSpec, ...]``.

:func:`expand_population` is a pure function of ``(spec, seed)``.  It
draws from four *independent* named streams — ``arrivals``,
``classes``, ``sizes``, ``endpoints`` — each seeded
``random.Random(f"{seed}:{spec.rng_stream}:{substream}")``, the same
derivation :meth:`repro.sim.engine.Simulator.rng` uses for its named
streams.  Independence means changing one axis (say the size
distribution) never perturbs another (the arrival times), which is
what keeps population sweeps comparable across parameters; the
determinism tests pin both properties.

The draws themselves come from one private generator,
``_population_draws``: ``expand_population`` wraps each in a
``FlowSpec``, while hybrid fidelity (:mod:`repro.fluid.derive`) feeds
their ``(start, size_bytes)`` straight to :func:`bin_offered_load` and
never holds a flow — one draw loop and one binning loop behind both
fidelities.

:func:`apply_slas` closes the DiffServ loop: every assured flow the
expander emitted needs an srTCM edge meter on its access link, and
this rewrites a :class:`~repro.topo.specs.TopologySpec` to attach
them, one marker-free link per flow, in flow order.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.topo.specs import FlowSpec, MarkerSpec, SlaSpec, TopologySpec
from repro.traffic.samplers import iter_arrivals, size_sampler
from repro.traffic.specs import PopulationSpec

#: Transports whose flows hold a per-flow AF guarantee.
ASSURED_TRANSPORTS = ("gtfrc", "qtpaf")


def expand_population(spec: PopulationSpec, seed: int) -> Tuple[FlowSpec, ...]:
    """Expand one population into concrete flows, in arrival order.

    Flow ids are ``f"{class.name}{i}"`` with ``i`` the arrival index
    across the whole population, so ids are unique even across classes
    (class names may not end in a digit — see
    :class:`~repro.traffic.specs.FlowClassSpec`).
    Best-effort flows draw their endpoint pair uniformly *with*
    replacement; assured flows draw *without* replacement (each needs
    its own conditioned access link — see :func:`apply_slas`) and a
    population with more assured arrivals than endpoint pairs raises
    ``ValueError``.
    """
    # positional: flow_id, src, dst, transport, target_bps, record,
    # start, stop, p_scaling, sack, size_bytes
    return tuple(
        FlowSpec(
            f"{name}{i}", src, dst, transport, target_bps, record,
            start, None, False, True, size,
        )
        for name, i, src, dst, transport, target_bps, record, start, size
        in _population_draws(spec, seed)
    )


#: One arrival as :func:`_population_draws` yields it: ``(class name,
#: index, src, dst, transport, target_bps, record, start, size_bytes)``.
PopulationDraw = Tuple[
    str, int, str, str, str, Optional[float], bool, float, int
]


def _population_draws(
    spec: PopulationSpec, seed: int
) -> Iterator[PopulationDraw]:
    """The population's raw per-arrival draws, one at a time.

    Everything :func:`expand_population` knows about a flow, before it
    is a ``FlowSpec``: the single draw loop behind both fidelities.
    The packet-level tier wraps each draw in a ``FlowSpec``; the hybrid
    tier (:func:`repro.fluid.derive.background_from_population`) reads
    ``start`` and ``size_bytes`` off it and lets it go, so a background
    of any size costs O(1) memory.  The four streams are independent,
    so pulling arrival times lazily instead of up front moves no draw.
    """
    arrivals_rng = _stream(spec, seed, "arrivals")
    classes_rng = _stream(spec, seed, "classes")
    sizes_rng = _stream(spec, seed, "sizes")
    endpoints_rng = _stream(spec, seed, "endpoints")

    times = iter_arrivals(
        spec.arrival, arrivals_rng, spec.horizon, spec.n_flows
    )
    # per-class constants, resolved once.  bounds[k] is the cumulative
    # weight through class k (a left fold, so the total has the same
    # bits on every Python); the last is lifted to +inf so a draw that
    # rounds up to the total still lands on the last class.
    bounds = list(accumulate(cls.weight for cls in spec.classes))
    total_weight = bounds[-1]
    bounds[-1] = math.inf
    classes = [
        (cls.name, cls.transport, cls.target_bps, cls.record,
         cls.transport in ASSURED_TRANSPORTS,
         size_sampler(cls.size, sizes_rng))
        for cls in spec.classes
    ]
    endpoints, start = spec.endpoints, spec.start
    assured_pool: List[Tuple[str, str]] = list(endpoints)
    pick, randrange = classes_rng.random, endpoints_rng.randrange

    for i, t in enumerate(times):
        # one `classes` draw per flow regardless of the class count, so
        # adding a class never shifts which draw later flows consume
        name, transport, target_bps, record, assured, draw_size = classes[
            bisect_right(bounds, pick() * total_weight)
        ]
        size = draw_size()
        if assured:
            if not assured_pool:
                raise ValueError(
                    f"population {spec.name!r}: ran out of endpoint pairs "
                    f"for assured flow {name}{i} (assured flows draw "
                    "without replacement; add endpoints or lower the "
                    "assured class weight)"
                )
            src, dst = assured_pool.pop(randrange(len(assured_pool)))
        else:
            src, dst = endpoints[randrange(len(endpoints))]
        yield name, i, src, dst, transport, target_bps, record, start + t, size


def _stream(spec: PopulationSpec, seed: int, substream: str) -> random.Random:
    return random.Random(f"{seed}:{spec.rng_stream}:{substream}")


def offered_load_profile(
    flows: Iterable[FlowSpec],
    epoch: float,
    horizon: Optional[float] = None,
    per_flow_rate_bps: Optional[float] = None,
) -> Tuple[float, ...]:
    """Bin the flows' offered bytes into per-epoch buckets.

    :func:`bin_offered_load` over each flow's ``(start, size_bytes)``.
    Because the input is the *expanded* flow tuple, the same
    ``(spec, seed)`` that drives a packet-level run yields exactly the
    bytes the fluid model offers — that is what the hybrid/packet
    equivalence tests lean on.  Flows without a ``size_bytes`` budget
    have no defined offered volume and raise ``ValueError``.
    """
    return bin_offered_load(
        flow_deposits(flows), epoch, horizon, per_flow_rate_bps
    )


def flow_deposits(flows: Iterable[FlowSpec]) -> Iterator[Tuple[float, int]]:
    """Each flow's ``(start, size_bytes)`` deposit, in flow order."""
    for flow in flows:
        if flow.size_bytes is None:
            raise ValueError(
                f"flow {flow.flow_id!r} has no size_bytes budget; offered "
                "load is only defined for finite flows"
            )
        yield flow.start, flow.size_bytes


def bin_offered_load(
    deposits: Iterable[Tuple[float, int]],
    epoch: float,
    horizon: Optional[float] = None,
    per_flow_rate_bps: Optional[float] = None,
) -> Tuple[float, ...]:
    """Bin ``(start, size_bytes)`` deposits into per-epoch buckets.

    The population→aggregate derivation behind hybrid fidelity
    (:mod:`repro.fluid`): each deposit's byte budget is laid along the
    time axis, either entirely in its arrival epoch (the default) or
    spread at ``per_flow_rate_bps`` from its start (modeling
    access-link pacing).

    ``per_flow_rate_bps`` of ``None`` or ``0`` means "deposit in the
    arrival epoch"; a negative rate is rejected.  ``horizon=None``
    sizes the profile to cover every deposit; an explicit horizon
    truncates (late bytes are discarded).

    One pass over ``deposits`` (any iterable, never held).  Each bin
    accumulates its deposits in input order and every term is ``rate *
    (hi - lo)`` with ``lo``/``hi`` the deposit clamped to the bin's
    edges ``idx * epoch`` and ``(idx + 1) * epoch``, so a profile is a
    float-exact function of its inputs (``perf/expected/`` pins it
    that way).
    """
    if epoch <= 0:
        raise ValueError("epoch must be positive")
    if per_flow_rate_bps is not None and per_flow_rate_bps < 0:
        raise ValueError(
            f"per_flow_rate_bps must be >= 0 (got {per_flow_rate_bps!r}); "
            "use None or 0 to deposit each flow in its arrival epoch"
        )
    truncate = horizon is not None  # an explicit horizon discards late bytes
    bins: List[float] = []
    edges: List[float] = [0.0]  # edges[idx] == idx * epoch
    widths: List[float] = []  # widths[idx] == edges[idx + 1] - edges[idx]

    def cover(n_bins: int) -> None:
        for idx in range(len(bins), n_bins):
            bins.append(0.0)
            edges.append((idx + 1) * epoch)
            widths.append(edges[idx + 1] - edges[idx])

    cover(int(horizon / epoch) + 1 if truncate and horizon > 0 else 1)
    for start, size in deposits:
        if truncate and start >= horizon > 0:
            continue
        duration = size * 8.0 / per_flow_rate_bps if per_flow_rate_bps else 0.0
        end = start + duration
        first = int(start / epoch)
        last = int(end / epoch) if end > start else first
        if last >= len(bins):
            if truncate:
                last = len(bins) - 1
            else:
                cover(last + 1)
        if first > last:  # starts beyond a truncated profile
            continue
        if end <= start:  # point deposit: all bytes in the arrival epoch
            bins[first] += size
            continue
        rate = size / (end - start)  # bytes per second, uniform spread
        # int(end / epoch) can round up onto an edge at or past ``end``;
        # that bin receives nothing, and stepping back leaves every
        # interior bin wholly inside [start, end]: no clamping there
        while last > first and edges[last] >= end:
            last -= 1
        for idx in range(first + 1, last):
            bins[idx] += rate * widths[idx]
        for idx in {first, last}:
            lo = max(start, edges[idx])
            hi = min(end, edges[idx + 1])
            if hi > lo:
                bins[idx] += rate * (hi - lo)
    return tuple(bins)


def apply_slas(
    topology: TopologySpec,
    flows: Iterable[FlowSpec],
    burst_bytes: float = 30_000.0,
) -> TopologySpec:
    """Attach one srTCM edge marker per assured flow to ``topology``.

    For each assured (``gtfrc``/``qtpaf``) flow, in flow order, the
    first still-unmarked link whose ``src`` matches the flow's source
    gets a ``MarkerSpec(SlaSpec(flow_id, target_bps, burst_bytes))`` —
    the domain-edge conditioning every AF scenario applies by hand
    today.  Raises ``ValueError`` when a flow has no free access link
    (two assured flows sharing a single-homed source).  Links keep
    their spec order, so the rewrite never perturbs build order.
    """
    links = list(topology.links)
    for flow in flows:
        if flow.transport not in ASSURED_TRANSPORTS:
            continue
        for idx, link in enumerate(links):
            if link.src == flow.src and link.marker is None:
                links[idx] = replace(
                    link,
                    marker=MarkerSpec(
                        sla=SlaSpec(
                            flow.flow_id,
                            flow.target_bps,
                            burst_bytes=burst_bytes,
                        )
                    ),
                )
                break
        else:
            raise ValueError(
                f"no unmarked access link out of {flow.src!r} for assured "
                f"flow {flow.flow_id!r}"
            )
    return TopologySpec(links=tuple(links), nodes=topology.nodes)
