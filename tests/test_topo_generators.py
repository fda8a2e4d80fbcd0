"""Topology generators: pinned link order, shapes, buildability."""

import pytest

from repro.sim.engine import Simulator
from repro.topo import (
    ChannelSpec,
    LinkSpec,
    MarkerSpec,
    QueueSpec,
    ScenarioSpec,
    SlaSpec,
    access_star_endpoints,
    access_star_spec,
    build,
    chain_spec,
    dumbbell_spec,
    fat_tree_spec,
    hetero_sla_dumbbell_spec,
    isp_chain_spec,
    lossy_chain_spec,
    random_access_star_spec,
    t1_dumbbell_spec,
)
from repro.topo.specs import FlowSpec

RIO = QueueSpec(kind="rio")


class TestDumbbell:
    def test_pinned_link_order(self):
        # bottleneck first, then each pair's two access links
        assert [(l.src, l.dst) for l in dumbbell_spec(3).links] == [
            ("left", "right"),
            ("s0", "left"), ("right", "d0"),
            ("s1", "left"), ("right", "d1"),
            ("s2", "left"), ("right", "d2"),
        ]

    def test_defaults_and_bottleneck_queue(self):
        bottleneck, access = dumbbell_spec(1).links[:2]
        assert (bottleneck.rate_bps, bottleneck.delay) == (10e6, 0.02)
        assert (access.rate_bps, access.delay) == (100e6, 0.001)
        assert bottleneck.queue == access.queue == QueueSpec()
        assert dumbbell_spec(1, bottleneck_queue=RIO).links[0].queue == RIO

    def test_routes_cross_the_bottleneck(self):
        net = build(Simulator(), ScenarioSpec("t", dumbbell_spec(3))).net
        assert net.link("left", "right").src.name == "left"
        assert net.node("s0").next_hop["d0"] == "left"
        assert net.node("left").next_hop["d0"] == "right"

    def test_per_pair_delays(self):
        spec = dumbbell_spec(2, access_delays=[0.001, 0.1])
        assert [l.delay for l in spec.links[1:]] == [0.001, 0.001, 0.1, 0.1]
        net = build(Simulator(), ScenarioSpec("t", spec)).net
        assert net.path_delay("s1", "d1") > net.path_delay("s0", "d0")

    def test_markers_sit_on_the_source_edge_only(self):
        marker = MarkerSpec(sla=SlaSpec("f", 1e6))
        spec = dumbbell_spec(2, access_markers=[None, marker])
        assert {(l.src, l.dst): l.marker for l in spec.links} == {
            ("left", "right"): None,
            ("s0", "left"): None, ("right", "d0"): None,
            ("s1", "left"): marker, ("right", "d1"): None,
        }

    def test_rejects_no_pairs(self):
        with pytest.raises(ValueError, match="n_pairs=0"):
            dumbbell_spec(0)

    @pytest.mark.parametrize(
        "argument, value", [("access_delays", [0.1]), ("access_markers", [None])]
    )
    def test_rejects_a_per_pair_list_of_the_wrong_length(self, argument, value):
        # not an IndexError from inside the pair loop
        with pytest.raises(ValueError, match=f"{argument} has 1 .* n_pairs=2"):
            dumbbell_spec(2, **{argument: value})


class TestChain:
    def test_pinned_link_order(self):
        assert [(l.src, l.dst) for l in chain_spec(3).links] == [
            ("h0", "h1"), ("h1", "h2"), ("h2", "h3"),
        ]

    def test_defaults(self):
        spec = chain_spec()
        assert len(spec.links) == 4
        assert spec.links[0] == LinkSpec("h0", "h1", 2e6, 0.005)

    def test_queue_and_channel_on_every_hop(self):
        queue = QueueSpec(capacity_packets=4)
        channel = ChannelSpec(kind="bernoulli", loss_rate=0.1)
        spec = chain_spec(2, queue=queue, channel=channel)
        assert [(l.queue, l.channel) for l in spec.links] == [(queue, channel)] * 2

    def test_rejects_no_hops(self):
        with pytest.raises(ValueError, match="at least one hop"):
            chain_spec(0)


class TestPresetsComposeTheShapes:
    """The three presets written out link by link, as they were before
    they took their links from ``dumbbell_spec`` / ``chain_spec``."""

    def test_t1_dumbbell(self):
        spec = t1_dumbbell_spec("qtpaf", 4e6, n_cross=1, assured_access_delay=0.05)
        assured = MarkerSpec(sla=SlaSpec("assured", 4e6, burst_bytes=30_000.0))
        assert spec.topology.links == (
            LinkSpec("left", "right", 10e6, 0.02, queue=RIO),
            LinkSpec("s0", "left", 100e6, 0.05, marker=assured),
            LinkSpec("right", "d0", 100e6, 0.05),
            LinkSpec("s1", "left", 100e6, 0.002),
            LinkSpec("right", "d1", 100e6, 0.002),
        )

    def test_hetero_sla_dumbbell(self):
        spec = hetero_sla_dumbbell_spec("gtfrc", (1e6, 2e6), n_cross=1)

        def sla(i, target):
            return MarkerSpec(sla=SlaSpec(f"af{i}", target, burst_bytes=30_000.0))

        assert spec.topology.links == (
            LinkSpec("left", "right", 10e6, 0.02, queue=RIO),
            LinkSpec("s0", "left", 100e6, 0.002, marker=sla(0, 1e6)),
            LinkSpec("right", "d0", 100e6, 0.002),
            LinkSpec("s1", "left", 100e6, 0.002, marker=sla(1, 2e6)),
            LinkSpec("right", "d1", 100e6, 0.002),
            LinkSpec("s2", "left", 100e6, 0.002),
            LinkSpec("right", "d2", 100e6, 0.002),
        )

    def test_lossy_chain(self):
        spec = lossy_chain_spec("tcp", 0.1, n_hops=2)
        lossy = ChannelSpec(kind="bernoulli", loss_rate=0.1, rng_stream="wireless")
        assert spec.topology.links == (
            LinkSpec("h0", "h1", 2e6, 0.005, channel=lossy),
            LinkSpec("h1", "h2", 2e6, 0.005, channel=lossy),
        )
        with pytest.raises(ValueError, match="at least one hop"):
            lossy_chain_spec("tcp", 0.1, n_hops=0)


class TestAccessStar:
    def test_pinned_link_order(self):
        spec = access_star_spec(3)
        assert [(l.src, l.dst) for l in spec.links] == [
            ("gw", "srv"), ("h0", "gw"), ("h1", "gw"), ("h2", "gw"),
        ]

    def test_bottleneck_is_rio(self):
        spec = access_star_spec(2, bottleneck_bps=5e6)
        assert spec.links[0].queue.kind == "rio"
        assert spec.links[0].rate_bps == 5e6
        assert all(l.queue.kind == "droptail" for l in spec.links[1:])

    def test_endpoints_match_hosts(self):
        assert access_star_endpoints(3) == (
            ("h0", "srv"), ("h1", "srv"), ("h2", "srv"),
        )

    def test_rejects_empty_star(self):
        with pytest.raises(ValueError, match="at least one host"):
            access_star_spec(0)

    def test_generated_spec_is_deterministic(self):
        assert access_star_spec(5) == access_star_spec(5)


class TestRandomAccessStar:
    def test_same_shape_and_pinned_order_as_uniform_star(self):
        spec = random_access_star_spec(3, seed=1)
        assert [(l.src, l.dst) for l in spec.links] == [
            ("gw", "srv"), ("h0", "gw"), ("h1", "gw"), ("h2", "gw"),
        ]
        assert spec.links[0].queue.kind == "rio"

    def test_sampled_links_stay_in_range(self):
        spec = random_access_star_spec(
            20,
            seed=7,
            access_rate_range=(5e6, 50e6),
            access_delay_range=(0.002, 0.01),
        )
        rates = [l.rate_bps for l in spec.links[1:]]
        delays = [l.delay for l in spec.links[1:]]
        assert all(5e6 <= r <= 50e6 for r in rates)
        assert all(0.002 <= d <= 0.01 for d in delays)
        # actually heterogeneous, not a constant draw
        assert len(set(rates)) > 1
        assert len(set(delays)) > 1

    def test_pure_function_of_seed(self):
        assert random_access_star_spec(5, seed=3) == random_access_star_spec(
            5, seed=3
        )
        assert random_access_star_spec(5, seed=3) != random_access_star_spec(
            5, seed=4
        )

    def test_independent_streams_for_rates_and_delays(self):
        # widening the delay range must not reshuffle the sampled rates
        a = random_access_star_spec(6, seed=2)
        b = random_access_star_spec(
            6, seed=2, access_delay_range=(0.001, 0.2)
        )
        assert [l.rate_bps for l in a.links] == [l.rate_bps for l in b.links]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="access_rate_range"):
            random_access_star_spec(3, seed=0, access_rate_range=(5e6, 1e6))
        with pytest.raises(ValueError, match="access_delay_range"):
            random_access_star_spec(
                3, seed=0, access_delay_range=(0.0, 0.01)
            )
        with pytest.raises(ValueError, match="at least one host"):
            random_access_star_spec(0, seed=0)

    def test_star_endpoints_apply(self):
        spec = random_access_star_spec(3, seed=1)
        hosts = {l.src for l in spec.links[1:]}
        assert {src for src, _ in access_star_endpoints(3)} == hosts


class TestIspChain:
    def test_pinned_link_order(self):
        spec = isp_chain_spec(2, hosts_per_pop=2)
        assert [(l.src, l.dst) for l in spec.links] == [
            ("r0", "r1"), ("r1", "r2"),
            ("p0h0", "r0"), ("p0h1", "r0"),
            ("p1h0", "r1"), ("p1h1", "r1"),
            ("p2h0", "r2"), ("p2h1", "r2"),
        ]

    def test_backbone_is_rio(self):
        spec = isp_chain_spec(3)
        assert all(l.queue.kind == "rio" for l in spec.links[:3])


class TestFatTree:
    def test_pinned_link_order(self):
        spec = fat_tree_spec(2, hosts_per_pod=2)
        assert [(l.src, l.dst) for l in spec.links] == [
            ("core", "agg0"), ("core", "agg1"),
            ("p0h0", "agg0"), ("p0h1", "agg0"),
            ("p1h0", "agg1"), ("p1h1", "agg1"),
        ]

    def test_core_links_are_rio(self):
        spec = fat_tree_spec(3, hosts_per_pod=1)
        assert all(l.queue.kind == "rio" for l in spec.links[:3])

    def test_rejects_single_pod(self):
        with pytest.raises(ValueError, match="at least two pods"):
            fat_tree_spec(1)


class TestGeneratedTopologiesBuild:
    @pytest.mark.parametrize(
        "topology,flow",
        [
            (access_star_spec(3), ("h1", "srv")),
            (isp_chain_spec(2, hosts_per_pop=1), ("p0h0", "p2h0")),
            (fat_tree_spec(2, hosts_per_pod=1), ("p0h0", "p1h0")),
        ],
        ids=["access_star", "isp_chain", "fat_tree"],
    )
    def test_flow_delivers_across_generated_shape(self, topology, flow):
        sim = Simulator(seed=0)
        src, dst = flow
        built = build(
            sim,
            ScenarioSpec(
                name="gen",
                topology=topology,
                flows=(FlowSpec("f", src, dst, transport="tcp"),),
            ),
        )
        sim.run(until=2.0)
        assert built.recorder("f").delivered_bytes > 0
