"""Unit tests for nodes, links and routing (shape tests: test_topo_generators)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.node import Agent, Node, RoutingError
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from repro.sim.topology import Network
from repro.topo import LinkSpec, ScenarioSpec, TopologySpec, build, chain_spec


class Sink(Agent):
    """Collects delivered packets."""

    def __init__(self, sim):
        super().__init__(sim)
        self.got = []

    def receive(self, packet):
        self.got.append((self.sim.now, packet))


def make_pkt(dst, flow="f", size=1000):
    return Packet(src="a", dst=dst, flow_id=flow, size=size)


def chain_net(sim, n_hops, **shape):
    return build(sim, ScenarioSpec("chain", chain_spec(n_hops, **shape))).net


def star_net(sim, n_leaves, rate=2e6, delay=0.01):
    spokes = tuple(
        LinkSpec("hub", f"m{i}", rate, delay) for i in range(n_leaves)
    )
    return build(sim, ScenarioSpec("star", TopologySpec(spokes))).net


class TestLinkDelivery:
    def test_serialization_plus_propagation_delay(self):
        sim = Simulator()
        net = Network(sim)
        net.add_simplex_link("a", "b", rate_bps=8000.0, delay=0.5)
        net.compute_routes()
        sink = Sink(sim).attach(net.node("b"), "f")
        net.node("a").send(make_pkt("b", size=1000))  # 1 s serialization
        sim.run()
        t, _ = sink.got[0]
        assert t == pytest.approx(1.5)

    def test_back_to_back_packets_pipeline(self):
        sim = Simulator()
        net = Network(sim)
        net.add_simplex_link("a", "b", rate_bps=8000.0, delay=0.0)
        net.compute_routes()
        sink = Sink(sim).attach(net.node("b"), "f")
        net.node("a").send(make_pkt("b"))
        net.node("a").send(make_pkt("b"))
        sim.run()
        times = [t for t, _ in sink.got]
        assert times == pytest.approx([1.0, 2.0])

    def test_queue_overflow_drops(self):
        sim = Simulator()
        net = Network(sim)
        link = net.add_simplex_link(
            "a", "b", rate_bps=8000.0, delay=0.0,
            queue=DropTailQueue(capacity_packets=2),
        )
        net.compute_routes()
        Sink(sim).attach(net.node("b"), "f")
        for _ in range(5):
            net.node("a").send(make_pkt("b"))
        sim.run()
        assert link.queue.stats.dropped > 0

    def test_utilization(self):
        sim = Simulator()
        net = Network(sim)
        link = net.add_simplex_link("a", "b", rate_bps=8000.0, delay=0.0)
        net.compute_routes()
        Sink(sim).attach(net.node("b"), "f")
        net.node("a").send(make_pkt("b", size=1000))
        sim.run()
        assert link.stats.utilization(8000.0, 2.0) == pytest.approx(0.5)

    def test_utilization_degenerate_window_is_zero(self):
        # a warmup-clipped summary window can collapse to zero or go
        # negative; that must report 0.0, not divide by zero
        sim = Simulator()
        net = Network(sim)
        link = net.add_simplex_link("a", "b", rate_bps=8000.0, delay=0.0)
        net.compute_routes()
        Sink(sim).attach(net.node("b"), "f")
        net.node("a").send(make_pkt("b", size=1000))
        sim.run()
        assert link.stats.tx_bytes > 0
        assert link.stats.utilization(8000.0, 0.0) == 0.0
        assert link.stats.utilization(8000.0, -1.0) == 0.0
        assert link.stats.utilization(0.0, 2.0) == 0.0

    def test_link_validates_args(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            net.add_simplex_link("a", "b", rate_bps=0.0, delay=0.1)
        # NaN passes a plain ``delay < 0`` check; the message names the link
        for rate_bps, delay in [
            (float("nan"), 0.1), (float("inf"), 0.1),
            (1e6, float("nan")), (1e6, float("inf")), (1e6, -0.1),
        ]:
            with pytest.raises(ValueError, match="link a->b"):
                net.add_simplex_link("a", "b", rate_bps=rate_bps, delay=delay)


class TestRouting:
    def test_multi_hop_forwarding(self):
        sim = Simulator()
        net = chain_net(sim, 3, rate_bps=1e6, delay=0.01)
        sink = Sink(sim).attach(net.node("h3"), "f")
        net.node("h0").send(Packet(src="h0", dst="h3", flow_id="f", size=100))
        sim.run()
        assert len(sink.got) == 1
        assert sink.got[0][1].hops == 3

    def test_shortest_path_chosen(self):
        sim = Simulator()
        net = Network(sim)
        # a-b-c slow path, a-c direct but longer delay
        net.add_duplex_link("a", "b", 1e6, 0.001)
        net.add_duplex_link("b", "c", 1e6, 0.001)
        net.add_duplex_link("a", "c", 1e6, 0.1)
        net.compute_routes()
        assert net.node("a").next_hop["c"] == "b"

    def test_path_delay(self):
        sim = Simulator()
        net = chain_net(sim, 4, rate_bps=1e6, delay=0.01)
        assert net.path_delay("h0", "h4") == pytest.approx(0.04)

    def test_no_route_raises(self):
        sim = Simulator()
        net = Network(sim)
        net.add_node("a")
        net.add_node("z")
        net.compute_routes()
        with pytest.raises(RoutingError):
            net.node("a").send(make_pkt("z"))

    def test_unroutable_hook(self):
        sim = Simulator()
        net = Network(sim)
        net.add_node("a")
        net.compute_routes()
        dropped = []
        net.node("a").on_unroutable = dropped.append
        net.node("a").send(make_pkt("zz"))
        assert len(dropped) == 1


class TestAgentBinding:
    def test_unknown_flow_raises(self):
        sim = Simulator()
        net = Network(sim)
        net.add_simplex_link("a", "b", 1e6, 0.0)
        net.compute_routes()
        net.node("a").send(make_pkt("b", flow="nobody"))
        with pytest.raises(RoutingError):
            sim.run()

    def test_rebinding_same_flow_rejected(self):
        sim = Simulator()
        node = Node(sim, "n")
        Sink(sim).attach(node, "f")
        with pytest.raises(RoutingError):
            Sink(sim).attach(node, "f")

    def test_unbind_allows_rebinding(self):
        sim = Simulator()
        node = Node(sim, "n")
        Sink(sim).attach(node, "f")
        node.unbind("f")
        sink2 = Sink(sim).attach(node, "f")
        assert node.agent_for("f") is sink2


class TestChainRouting:
    def test_route_tables_follow_the_line(self):
        net = chain_net(Simulator(), 4)
        # every node forwards toward the destination along the line,
        # one hop at a time, in both directions
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                expected = f"h{i + 1}" if j > i else f"h{i - 1}"
                assert net.node(f"h{i}").next_hop[f"h{j}"] == expected

    def test_duplex_links_are_symmetric(self):
        net = chain_net(Simulator(), 3, rate_bps=2e6, delay=0.007)
        for i in range(3):
            fwd = net.link(f"h{i}", f"h{i + 1}")
            back = net.link(f"h{i + 1}", f"h{i}")
            assert fwd.rate_bps == back.rate_bps == 2e6
            assert fwd.delay == back.delay == 0.007
            assert fwd.queue is not back.queue  # independent queues

    def test_end_to_end_path_delay_symmetric(self):
        net = chain_net(Simulator(), 3, delay=0.01)
        assert net.path_delay("h0", "h3") == pytest.approx(0.03)
        assert net.path_delay("h3", "h0") == pytest.approx(0.03)

    def test_hops_are_the_forward_links(self):
        net = chain_net(Simulator(), 3)
        hops = [net.link(f"h{i}", f"h{i + 1}") for i in range(3)]
        assert [(l.src.name, l.dst.name) for l in hops] == [
            ("h0", "h1"), ("h1", "h2"), ("h2", "h3")
        ]


class TestStarRouting:
    def test_leaf_to_leaf_routes_via_hub(self):
        net = star_net(Simulator(), 4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert net.node(f"m{i}").next_hop[f"m{j}"] == "hub"

    def test_hub_routes_directly_to_each_leaf(self):
        net = star_net(Simulator(), 3)
        for i in range(3):
            assert net.node("hub").next_hop[f"m{i}"] == f"m{i}"

    def test_duplex_spokes_are_symmetric(self):
        net = star_net(Simulator(), 3, rate=1e6, delay=0.02)
        for i in range(3):
            out = net.link("hub", f"m{i}")
            back = net.link(f"m{i}", "hub")
            assert out.rate_bps == back.rate_bps == 1e6
            assert out.delay == back.delay == 0.02
            assert out.queue is not back.queue

    def test_leaf_to_leaf_delay_is_two_spokes(self):
        net = star_net(Simulator(), 2, delay=0.02)
        assert net.path_delay("m0", "m1") == pytest.approx(0.04)

    def test_leaf_to_leaf_forwarding_delivers(self):
        sim = Simulator()
        net = star_net(sim, 3)
        sink = Sink(sim).attach(net.node("m2"), "f")
        net.node("m0").send(
            Packet(src="m0", dst="m2", flow_id="f", size=100)
        )
        sim.run()
        assert len(sink.got) == 1
        assert sink.got[0][1].hops == 2  # via the hub


class TestHopCost:
    """What forwarding one packet one hop costs, as a count of Python
    frames executed under ``repro/sim/`` — the per-packet path is most
    of a run, so a hand-off frame that creeps back in is a regression
    even though no result changes."""

    def test_at_most_nine_frames_per_forwarded_hop(self, count_frames):
        packets = 50

        def sim_frames(n_hops):
            sim = Simulator()
            net = chain_net(sim, n_hops, rate_bps=1e6, delay=0.001)
            first, last = net.node("h0"), net.node(f"h{n_hops}")
            sink = Sink(sim).attach(last, "f")
            for i in range(packets):
                # spaced out: every packet finds every link idle, the case
                # with the most frames (the link also learns its queue is empty)
                sim.schedule(0.1 * i, first.send, make_pkt(last.name))
            frames = count_frames("/repro/sim/", sim.run)
            assert len(sink.got) == packets
            return frames

        # one more hop = one more forwarding node and link on the path;
        # nothing else differs, so the difference is the hop's own cost
        per_hop = (sim_frames(3) - sim_frames(2)) / packets
        assert per_hop == int(per_hop)  # the same walk for every packet
        # _deliver > Node.receive > Link.send > enqueue, dequeue,
        # schedule_pooled; _finish_transmission > schedule_pooled, dequeue
        assert per_hop <= 9
