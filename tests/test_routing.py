"""Static routing: shortest paths, pinned tie-breaking, networkx parity.

``Network.compute_routes`` decides which way every packet goes, so
which of several equal-cost paths it picks is part of every golden.
Three independent checks: a Floyd–Warshall property on random graphs
(the tables route along *a* shortest path), a committed next-hop golden
captured from the networkx-based router this one replaced (the tables
pick *the same* shortest path), and — where networkx happens to be
installed — a direct comparison on every registry scenario.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.registry import list_scenarios
from repro.sim.engine import Simulator
from repro.sim.topology import Network
from repro.topo import (
    ScenarioSpec,
    access_star_spec,
    build,
    fat_tree_spec,
    isp_chain_spec,
    parking_lot_spec,
    random_access_star_spec,
)

GOLDENS = json.loads(
    (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "goldens"
        / "next_hop_goldens.json"
    ).read_text()
)


def tables(net):
    return {name: dict(node.next_hop) for name, node in net.nodes.items()}


def duplex_net(pairs, delay):
    net = Network(Simulator())
    for a, b in pairs:
        net.add_duplex_link(a, b, 1e6, delay)
    net.compute_routes()
    return net


def spec_net(topology):
    spec = ScenarioSpec(name="routing", topology=topology, flows=())
    return build(Simulator(), spec).net


DIAMOND = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]

#: Every shape here except the generated trees has equal-cost
#: alternatives, so its table records a tie-break, not just a distance.
GOLDEN_NETWORKS = {
    "ring6": lambda: duplex_net(
        [(f"n{i}", f"n{(i + 1) % 6}") for i in range(6)], 0.01
    ),
    "diamond": lambda: duplex_net(DIAMOND, 0.005),
    "zero_delay_diamond": lambda: duplex_net(DIAMOND, 0.0),
    "grid3": lambda: duplex_net(
        [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(3) for c in range(2)]
        + [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(2) for c in range(3)],
        0.002,
    ),
    "parking_lot": lambda: build(
        Simulator(), parking_lot_spec("tfrc", 2e6)
    ).net,
    "access_star": lambda: spec_net(access_star_spec(4)),
    "random_access_star": lambda: spec_net(random_access_star_spec(4, seed=1)),
    "isp_chain": lambda: spec_net(isp_chain_spec(3, hosts_per_pop=2)),
    "fat_tree": lambda: spec_net(fat_tree_spec(3, hosts_per_pod=2)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_NETWORKS))
def test_next_hop_tables_match_golden(name):
    assert tables(GOLDEN_NETWORKS[name]()) == GOLDENS[name]


def test_golden_pins_a_tie_break():
    # n0 -> n3 is three hops either way round the ring; a -> d is two
    # hops through b or through c
    assert GOLDENS["ring6"]["n0"]["n3"] == "n1"
    assert GOLDENS["diamond"]["a"]["d"] == "b"


# ----------------------------------------------------------------------
# property: the tables route along shortest paths
# ----------------------------------------------------------------------
#: few distinct delays, zero among them, so equal-cost alternatives and
#: zero-delay links are the common case rather than the rare one
DELAYS = st.sampled_from([0.0, 0.001, 0.002, 0.004])


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"v{i}" for i in range(n)]
    edges = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            DELAYS,
            max_size=n * 3,
        )
    )
    return names, edges


def floyd_warshall(names, weights):
    inf = float("inf")
    dist = {
        a: {b: 0.0 if a == b else weights.get((a, b), inf) for b in names}
        for a in names
    }
    for k in names:
        for a in names:
            for b in names:
                if dist[a][k] + dist[k][b] < dist[a][b]:
                    dist[a][b] = dist[a][k] + dist[k][b]
    return dist


@given(digraphs())
@settings(max_examples=200, deadline=None)
def test_next_hops_follow_shortest_paths(graph):
    names, edges = graph
    net = Network(Simulator())
    for name in names:
        net.add_node(name)
    for (a, b), delay in edges.items():
        net.add_simplex_link(a, b, 1e6, delay)
    net.compute_routes()
    weights = {pair: delay + 1e-9 for pair, delay in edges.items()}
    best = floyd_warshall(names, weights)
    for src in names:
        reachable = {
            dst for dst in names if dst != src and best[src][dst] < float("inf")
        }
        assert set(net.node(src).next_hop) == reachable
        for dst in reachable:
            here, total, hops = src, 0.0, 0
            while here != dst:
                hop = net.node(here).next_hop[dst]
                total += weights[(here, hop)]
                here = hop
                hops += 1
                assert hops <= len(names), "routing loop"
            # the smallest gap between two distinct path weights is the
            # 1e-9 hop cost; summation order only moves the last bits
            assert abs(total - best[src][dst]) < 1e-12


# ----------------------------------------------------------------------
# parity with the library the in-tree router replaced
# ----------------------------------------------------------------------
class _Routed(Exception):
    """Aborts a scenario once its topology has been checked."""


def test_tables_equal_networkx_on_every_registry_topology(monkeypatch):
    nx = pytest.importorskip("networkx")
    compute_routes = Network.compute_routes

    def checked_compute_routes(net):
        compute_routes(net)
        graph = nx.DiGraph()
        graph.add_nodes_from(net.nodes)
        for link in net.links:
            graph.add_edge(link.src.name, link.dst.name, weight=link.delay + 1e-9)
        expected = {
            src: {dst: path[1] for dst, path in paths.items() if len(path) > 1}
            for src, paths in nx.all_pairs_dijkstra_path(graph, weight="weight")
        }
        assert tables(net) == expected
        raise _Routed

    monkeypatch.setattr(Network, "compute_routes", checked_compute_routes)
    # other test modules register probe scenarios of their own
    in_tree = [s for s in list_scenarios() if s.fn.__module__.startswith("repro.")]
    routed = set()
    for scenario in in_tree:
        params = {
            name: values[0] for name, values in scenario.default_grid.items()
        }
        try:
            scenario.fn(**scenario.bind(params))
        except _Routed:
            routed.add(scenario.name)
    # `negotiation` matches capability sets and never builds a network
    assert routed == {s.name for s in in_tree} - {"negotiation"}
