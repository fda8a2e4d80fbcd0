"""Network container and static routing.

:class:`Network` owns nodes and links, and computes static shortest-path
routes (by propagation delay) with one first-hop Dijkstra pass per
source (:func:`_first_hops`).  Networks are built from
:mod:`repro.topo` specs (:func:`repro.topo.build`); the canonical
dumbbell and chain shapes are :func:`repro.topo.dumbbell_spec` and
:func:`repro.topo.chain_spec`.
"""

from __future__ import annotations

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
