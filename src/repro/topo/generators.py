"""Programmatic topology generators.

The two canonical evaluation shapes — :func:`dumbbell_spec` (N sources,
N sinks, one shared bottleneck) and :func:`chain_spec` (an H-hop path)
— plus the parameterized shapes for generated populations: an access
star (the canonical "many subscribers behind one conditioned uplink"),
an ISP-style parking-lot chain of N RIO bottlenecks, and a small folded
fat-tree.  Each generator returns a plain
:class:`~repro.topo.specs.TopologySpec` with links in a **pinned
deterministic order** (bottleneck links first, then access links in
host order — the convention the presets follow), so a generated
topology builds bit-identically for the same parameters.

Each population shape ships an ``*_endpoints`` helper returning the
natural ``(src, dst)`` pool for
:class:`~repro.traffic.specs.PopulationSpec`, in the same pinned order.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.topo.specs import (
    ChannelSpec,
    LinkSpec,
    MarkerSpec,
    QueueSpec,
    TopologySpec,
)

Endpoints = Tuple[Tuple[str, str], ...]

#: The RIO discipline every AF bottleneck uses (class defaults;
#: ``mean_pkt_time`` derives from the owning link's rate).
RIO = QueueSpec(kind="rio")


def dumbbell_spec(
    n_pairs: int,
    *,
    bottleneck_bps: float = 10e6,
    bottleneck_delay: float = 0.02,
    bottleneck_queue: QueueSpec = QueueSpec(),
    access_rate: float = 100e6,
    access_delay: float = 0.001,
    access_delays: Optional[Sequence[float]] = None,
    access_markers: Optional[Sequence[Optional[MarkerSpec]]] = None,
) -> TopologySpec:
    """The classic dumbbell: ``s{i} -> left -> right -> d{i}``.

    ``n_pairs`` source/sink pairs share the ``left -> right``
    bottleneck, which carries ``bottleneck_queue`` in both directions
    (e.g. :data:`RIO` for the AF experiments).  ``access_delays``
    overrides ``access_delay`` per pair (RTT-asymmetry experiments);
    ``access_markers`` puts a per-pair DiffServ marker on the
    ``s{i} -> left`` edge link only.  Link order: the bottleneck first,
    then per pair ``s{i}–left`` and ``right–d{i}``.
    """
    if n_pairs < 1:
        raise ValueError(f"need at least one pair (got n_pairs={n_pairs})")
    delays = [access_delay] * n_pairs if access_delays is None else access_delays
    markers = [None] * n_pairs if access_markers is None else access_markers
    for name, per_pair in (("access_delays", delays), ("access_markers", markers)):
        if len(per_pair) != n_pairs:
            raise ValueError(
                f"{name} has {len(per_pair)} entries for n_pairs={n_pairs}"
            )
    links: List[LinkSpec] = [
        LinkSpec(
            "left", "right", bottleneck_bps, bottleneck_delay, queue=bottleneck_queue
        )
    ]
    for i, (delay, marker) in enumerate(zip(delays, markers)):
        links.append(LinkSpec(f"s{i}", "left", access_rate, delay, marker=marker))
        links.append(LinkSpec("right", f"d{i}", access_rate, delay))
    return TopologySpec(links=tuple(links))


def chain_spec(
    n_hops: int = 4,
    *,
    rate_bps: float = 2e6,
    delay: float = 0.005,
    queue: QueueSpec = QueueSpec(),
    channel: Optional[ChannelSpec] = None,
) -> TopologySpec:
    """An ``n_hops``-link path ``h0 - h1 - ... - hN``, in hop order.

    ``channel`` puts an independent loss model on both directions of
    every hop — the multi-hop wireless scenario of the paper's
    motivation.
    """
    if n_hops < 1:
        raise ValueError("need at least one hop")
    hops = (
        LinkSpec(f"h{i}", f"h{i + 1}", rate_bps, delay, queue=queue, channel=channel)
        for i in range(n_hops)
    )
    return TopologySpec(links=tuple(hops))


def access_star_spec(
    n_hosts: int,
    *,
    bottleneck_bps: float = 20e6,
    bottleneck_delay: float = 0.02,
    access_rate: float = 100e6,
    access_delay: float = 0.002,
) -> TopologySpec:
    """An access star: ``h{i} -> gw -> srv`` over one RIO bottleneck.

    ``n_hosts`` subscriber hosts each hold a private access link to the
    gateway ``gw``; all share the conditioned ``gw -> srv`` uplink.
    Link order: the bottleneck first, then the access links in host
    order — per-host markers (see
    :func:`repro.traffic.population.apply_slas`) land on the ``h{i} ->
    gw`` links.
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    links: List[LinkSpec] = [
        LinkSpec("gw", "srv", bottleneck_bps, bottleneck_delay, queue=RIO)
    ]
    for i in range(n_hosts):
        links.append(LinkSpec(f"h{i}", "gw", access_rate, access_delay))
    return TopologySpec(links=tuple(links))


def access_star_endpoints(n_hosts: int) -> Endpoints:
    """The star's natural flow endpoints: each host talks to ``srv``."""
    return tuple((f"h{i}", "srv") for i in range(n_hosts))


def random_access_star_spec(
    n_hosts: int,
    seed: int,
    *,
    bottleneck_bps: float = 20e6,
    bottleneck_delay: float = 0.02,
    access_rate_range: Tuple[float, float] = (10e6, 100e6),
    access_delay_range: Tuple[float, float] = (0.001, 0.02),
    rng_stream: str = "topo.random_star",
) -> TopologySpec:
    """An access star with *sampled* leaf capacities and delays.

    Same shape and pinned link order as :func:`access_star_spec`
    (bottleneck first, then ``h{i} -> gw`` in host order), but each
    access link draws its ``rate_bps`` and ``delay`` uniformly from the
    given ranges — a heterogeneous subscriber edge (DSL next to fiber)
    instead of the uniform one.  ``access_star_endpoints`` applies
    unchanged.

    Sampling is a pure function of ``(n_hosts, seed, ranges)``: rates
    and delays come from two *independent* streams seeded
    ``random.Random(f"{seed}:{rng_stream}:{substream}")`` (the
    :func:`repro.traffic.population.expand_population` discipline),
    each consuming one draw per host in host order — so widening the
    delay range never reshuffles the sampled rates, and the generated
    spec is golden-pinned like every other topology.
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    rate_lo, rate_hi = access_rate_range
    delay_lo, delay_hi = access_delay_range
    if not 0 < rate_lo <= rate_hi:
        raise ValueError("access_rate_range must satisfy 0 < lo <= hi")
    if not 0 < delay_lo <= delay_hi:
        raise ValueError("access_delay_range must satisfy 0 < lo <= hi")
    rates_rng = random.Random(f"{seed}:{rng_stream}:rates")
    delays_rng = random.Random(f"{seed}:{rng_stream}:delays")
    links: List[LinkSpec] = [
        LinkSpec("gw", "srv", bottleneck_bps, bottleneck_delay, queue=RIO)
    ]
    for i in range(n_hosts):
        links.append(
            LinkSpec(
                f"h{i}",
                "gw",
                rates_rng.uniform(rate_lo, rate_hi),
                delays_rng.uniform(delay_lo, delay_hi),
            )
        )
    return TopologySpec(links=tuple(links))


def isp_chain_spec(
    n_bottlenecks: int,
    hosts_per_pop: int = 1,
    *,
    bottleneck_bps: float = 10e6,
    hop_delay: float = 0.01,
    access_rate: float = 100e6,
    access_delay: float = 0.002,
) -> TopologySpec:
    """A parking-lot ISP chain: N RIO bottlenecks ``r{i} -> r{i+1}``.

    Routers ``r0 .. r{N}`` form the backbone; every router (PoP) hosts
    ``hosts_per_pop`` subscriber nodes ``p{i}h{k}`` on private access
    links.  Link order: the N backbone bottlenecks first (in hop
    order), then the access links in ``(PoP, host)`` order.
    """
    if n_bottlenecks < 1:
        raise ValueError("need at least one bottleneck")
    if hosts_per_pop < 1:
        raise ValueError("need at least one host per PoP")
    links: List[LinkSpec] = [
        LinkSpec(f"r{i}", f"r{i + 1}", bottleneck_bps, hop_delay, queue=RIO)
        for i in range(n_bottlenecks)
    ]
    for i in range(n_bottlenecks + 1):
        for k in range(hosts_per_pop):
            links.append(
                LinkSpec(f"p{i}h{k}", f"r{i}", access_rate, access_delay)
            )
    return TopologySpec(links=tuple(links))


def isp_chain_endpoints(
    n_bottlenecks: int, hosts_per_pop: int = 1
) -> Endpoints:
    """Chain endpoints: per-hop neighbour pairs, then long-haul pairs.

    For every bottleneck ``i`` and host index ``k`` the pair
    ``(p{i}h{k}, p{i+1}h{k})`` crosses exactly that hop; the trailing
    ``(p0h{k}, p{N}h{k})`` pairs cross the whole chain (the multi-hop
    flows the parking-lot experiments stress).
    """
    pairs: List[Tuple[str, str]] = []
    for i in range(n_bottlenecks):
        for k in range(hosts_per_pop):
            pairs.append((f"p{i}h{k}", f"p{i + 1}h{k}"))
    if n_bottlenecks > 1:
        for k in range(hosts_per_pop):
            pairs.append((f"p0h{k}", f"p{n_bottlenecks}h{k}"))
    return tuple(pairs)


def fat_tree_spec(
    n_pods: int = 2,
    hosts_per_pod: int = 2,
    *,
    core_rate_bps: float = 40e6,
    agg_rate_bps: float = 100e6,
    core_delay: float = 0.005,
    access_delay: float = 0.002,
) -> TopologySpec:
    """A small folded fat-tree: one core, one aggregation switch per pod.

    ``core -> agg{p} -> p{p}h{k}``; cross-pod traffic funnels through
    the RIO-queued core links.  This is the single-core *degenerate*
    fat-tree (a tree): with one route per pair there is no multipath to
    exploit, which matches the simulator's single-shortest-path
    routing — the shape is here for its hierarchy and its shared-core
    contention, not for ECMP.  Link order: core links in pod order,
    then host links in ``(pod, host)`` order.
    """
    if n_pods < 2:
        raise ValueError("need at least two pods")
    if hosts_per_pod < 1:
        raise ValueError("need at least one host per pod")
    links: List[LinkSpec] = [
        LinkSpec("core", f"agg{p}", core_rate_bps, core_delay, queue=RIO)
        for p in range(n_pods)
    ]
    for p in range(n_pods):
        for k in range(hosts_per_pod):
            links.append(
                LinkSpec(f"p{p}h{k}", f"agg{p}", agg_rate_bps, access_delay)
            )
    return TopologySpec(links=tuple(links))


def fat_tree_endpoints(n_pods: int = 2, hosts_per_pod: int = 2) -> Endpoints:
    """Cross-pod pairs: host ``k`` of pod ``p`` talks to pod ``p+1``'s."""
    return tuple(
        (f"p{p}h{k}", f"p{(p + 1) % n_pods}h{k}")
        for p in range(n_pods)
        for k in range(hosts_per_pod)
    )
