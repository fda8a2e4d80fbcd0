"""Network container, static routing and canonical topology builders.

:class:`Network` owns nodes and links, and computes static shortest-path
routes (by propagation delay) with one first-hop Dijkstra pass per
source (:func:`_first_hops`).  The builders create the standard
evaluation topologies:

* :func:`dumbbell` — N sources, N sinks, one shared bottleneck;
* :func:`chain` — an H-hop path (multi-hop / ad-hoc experiments);
* :func:`star` — clients around one hub (server-to-mobiles experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.queues import DropTailQueue

QueueFactory = Callable[[], object]


def _default_queue() -> DropTailQueue:
    return DropTailQueue(capacity_packets=100)


class Network:
    """A set of nodes and links with static routing.

    Typical construction::

        net = Network(sim)
        a, b = net.add_node("a"), net.add_node("b")
        net.add_duplex_link("a", "b", rate_bps=10e6, delay=0.01)
        net.compute_routes()
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}

    # ------------------------------------------------------------------
    def add_node(self, name: str) -> Node:
        """Create (or return the existing) node called ``name``."""
        node = self.nodes.get(name)
        if node is None:
            node = Node(self.sim, name)
            self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node; raises KeyError when absent."""
        return self.nodes[name]

    def add_simplex_link(
        self,
        src: str,
        dst: str,
        rate_bps: float,
        delay: float,
        queue=None,
        channel=None,
        marker=None,
    ) -> Link:
        """Add a one-way link; creates endpoints as needed."""
        a, b = self.add_node(src), self.add_node(dst)
        link = Link(
            self.sim,
            a,
            b,
            rate_bps,
            delay,
            queue=queue if queue is not None else _default_queue(),
            channel=channel,
            marker=marker,
        )
        self._links[(src, dst)] = link
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        rate_bps: float,
        delay: float,
        queue_factory: Optional[QueueFactory] = None,
        channel_factory: Optional[Callable[[], object]] = None,
        marker=None,
    ) -> Tuple[Link, Link]:
        """Add both directions with independent queues/channels.

        ``marker`` (if given) is installed on the ``a -> b`` direction
        only, matching the usual edge-conditioning placement.
        """
        qf = queue_factory or _default_queue
        cf = channel_factory or (lambda: None)
        forward = self.add_simplex_link(
            a, b, rate_bps, delay, queue=qf(), channel=cf(), marker=marker
        )
        backward = self.add_simplex_link(b, a, rate_bps, delay, queue=qf(), channel=cf())
        return forward, backward

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst``; raises KeyError when absent."""
        return self._links[(src, dst)]

    @property
    def links(self) -> List[Link]:
        """All directed links."""
        return list(self._links.values())

    # ------------------------------------------------------------------
    def compute_routes(self) -> None:
        """Fill every node's next-hop table with delay-weighted shortest paths."""
        # 1e-9 per hop: a zero-delay link still costs something, so among
        # equal delays the path with fewer hops wins
        succ: Dict[str, List[Tuple[str, float]]] = {name: [] for name in self.nodes}
        for (src, dst), link in self._links.items():
            succ[src].append((dst, link.delay + 1e-9))
        for name, node in self.nodes.items():
            node.next_hop = _first_hops(succ, name)

    def path_delay(self, src: str, dst: str) -> float:
        """Sum of propagation delays along the routed path src -> dst."""
        total = 0.0
        here = src
        guard = 0
        while here != dst:
            hop = self.nodes[here].next_hop.get(dst)
            if hop is None:
                if dst in self.nodes[here].links:
                    hop = dst
                else:
                    raise KeyError(f"no route {src} -> {dst}")
            total += self._links[(here, hop)].delay
            here = hop
            guard += 1
            if guard > len(self.nodes) + 1:
                raise RuntimeError("routing loop detected")
        return total


def _first_hops(
    succ: Dict[str, List[Tuple[str, float]]], source: str
) -> Dict[str, str]:
    """Dijkstra from ``source``, keeping only each path's first hop.

    Returns ``{destination: neighbour of source}`` for every reachable
    destination other than ``source``, in order of distance.

    Which of several equal-cost paths wins is pinned by data
    (``benchmarks/goldens/next_hop_goldens.json``) and decides packet
    paths, so it must not drift: successors relax in link insertion
    order, only a *strict* improvement replaces a tentative route, and
    the heap breaks distance ties by push order.
    """
    table: Dict[str, str] = {}
    first: Dict[str, str] = {}  # tentative first hop of every seen node
    seen = {source: 0.0}  # no link back improves on 0, so source stays out
    fringe: List[Tuple[float, int, str]] = [(0.0, 0, source)]
    pushes = 1
    while fringe:
        dist, _, v = heappop(fringe)
        if v in table:
            continue  # stale entry: v was settled by a shorter route
        if v != source:
            table[v] = first[v]
        for u, cost in succ[v]:
            if u in table:
                continue
            reach = dist + cost
            if u not in seen or reach < seen[u]:
                seen[u] = reach
                first[u] = u if v == source else first[v]
                heappush(fringe, (reach, pushes, u))
                pushes += 1
    return table


# ----------------------------------------------------------------------
# canonical topologies
# ----------------------------------------------------------------------
@dataclass
class Dumbbell:
    """Handles returned by :func:`dumbbell`.

    ``sources[i]`` talks to ``sinks[i]`` across the shared
    ``left -> right`` bottleneck link.
    """

    net: Network
    sources: List[Node]
    sinks: List[Node]
    left: Node
    right: Node
    bottleneck: Link
    reverse_bottleneck: Link


def dumbbell(
    sim: Simulator,
    n_pairs: int = 2,
    access_rate: float = 100e6,
    access_delay: float = 0.001,
    bottleneck_rate: float = 10e6,
    bottleneck_delay: float = 0.02,
    bottleneck_queue_factory: Optional[QueueFactory] = None,
    access_delays: Optional[List[float]] = None,
    access_markers: Optional[List[object]] = None,
) -> Dumbbell:
    """Build the classic dumbbell used by most experiments.

    Parameters
    ----------
    n_pairs: number of source/sink pairs.
    access_rate, access_delay: per-pair access links (non-bottleneck).
    bottleneck_rate, bottleneck_delay: the shared link.
    bottleneck_queue_factory: queue discipline of the bottleneck (both
        directions), e.g. a RIO queue for the AF experiments.
    access_delays: optional per-pair overrides of ``access_delay`` (RTT
        asymmetry experiments).
    access_markers: optional per-pair DiffServ markers installed on the
        ``source -> left`` edge link.
    """
    net = Network(sim)
    left, right = net.add_node("left"), net.add_node("right")
    fwd, back = net.add_duplex_link(
        "left",
        "right",
        bottleneck_rate,
        bottleneck_delay,
        queue_factory=bottleneck_queue_factory,
    )
    sources, sinks = [], []
    for i in range(n_pairs):
        delay = access_delays[i] if access_delays else access_delay
        marker = access_markers[i] if access_markers else None
        src = net.add_node(f"s{i}")
        dst = net.add_node(f"d{i}")
        net.add_duplex_link(f"s{i}", "left", access_rate, delay, marker=marker)
        net.add_duplex_link("right", f"d{i}", access_rate, delay)
        sources.append(src)
        sinks.append(dst)
    net.compute_routes()
    return Dumbbell(net, sources, sinks, left, right, fwd, back)


@dataclass
class Chain:
    """Handles returned by :func:`chain`: end nodes and the hop links."""

    net: Network
    first: Node
    last: Node
    hops: List[Link]


def chain(
    sim: Simulator,
    n_hops: int = 4,
    rate: float = 2e6,
    delay: float = 0.005,
    queue_factory: Optional[QueueFactory] = None,
    channel_factory: Optional[Callable[[], object]] = None,
) -> Chain:
    """Build an ``n_hops``-link path h0 - h1 - ... - hN.

    ``channel_factory`` lets every hop carry an independent loss model —
    the multi-hop wireless scenario of the paper's motivation.
    """
    if n_hops < 1:
        raise ValueError("need at least one hop")
    net = Network(sim)
    hops: List[Link] = []
    for i in range(n_hops):
        fwd, _ = net.add_duplex_link(
            f"h{i}",
            f"h{i + 1}",
            rate,
            delay,
            queue_factory=queue_factory,
            channel_factory=channel_factory,
        )
        hops.append(fwd)
    net.compute_routes()
    return Chain(net, net.node("h0"), net.node(f"h{n_hops}"), hops)


@dataclass
class Star:
    """Handles returned by :func:`star`: the hub and its leaves."""

    net: Network
    hub: Node
    leaves: List[Node]


def star(
    sim: Simulator,
    n_leaves: int = 4,
    rate: float = 2e6,
    delay: float = 0.01,
    queue_factory: Optional[QueueFactory] = None,
    channel_factory: Optional[Callable[[], object]] = None,
) -> Star:
    """Build a hub with ``n_leaves`` spokes (server-to-mobiles scenario)."""
    net = Network(sim)
    net.add_node("hub")
    leaves = []
    for i in range(n_leaves):
        net.add_duplex_link(
            "hub",
            f"m{i}",
            rate,
            delay,
            queue_factory=queue_factory,
            channel_factory=channel_factory,
        )
        leaves.append(net.node(f"m{i}"))
    net.compute_routes()
    return Star(net, net.node("hub"), leaves)
