"""Unit tests for the declarative topology subsystem (repro.topo)."""

import dataclasses
import json
import pickle

import pytest

from repro.netem.channels import (
    BernoulliLossChannel,
    GilbertElliottChannel,
    JitterChannel,
)
from repro.qos.marking import BestEffortMarker, ProfileMarker
from repro.sim.engine import Simulator
from repro.sim.packet import Color
from repro.sim.queues import DropTailQueue, RedQueue, RioQueue
from repro.topo import (
    ChannelSpec,
    FlowSpec,
    LinkSpec,
    MarkerSpec,
    QueueSpec,
    ScenarioSpec,
    SlaSpec,
    TopologySpec,
    build,
    hetero_sla_dumbbell_spec,
    lossy_chain_spec,
    parking_lot_spec,
    reverse_path_chain_spec,
    t1_dumbbell_spec,
)


def tiny_spec(**flow_overrides):
    """A one-link, one-flow scenario for compiler unit tests."""
    flow = dict(
        flow_id="f", src="a", dst="b", transport="tcp", target_bps=None
    )
    flow.update(flow_overrides)
    return ScenarioSpec(
        name="tiny",
        topology=TopologySpec(links=(LinkSpec("a", "b", 1e6, 0.01),)),
        flows=(FlowSpec(**flow),),
    )


class TestSpecValidation:
    def test_specs_are_frozen_and_hashable(self):
        spec = t1_dumbbell_spec("qtpaf", 4e6)
        assert hash(spec) == hash(t1_dumbbell_spec("qtpaf", 4e6))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.flows[0].flow_id = "other"

    def test_unknown_queue_kind_rejected(self):
        with pytest.raises(ValueError, match="queue kind"):
            QueueSpec(kind="codel")

    def test_queue_params_must_match_kind(self):
        # a RIO threshold on a RED queue would be silently ignored
        with pytest.raises(ValueError, match="does not use"):
            QueueSpec(kind="red", in_min_th=5)
        with pytest.raises(ValueError, match="does not use"):
            QueueSpec(kind="droptail", min_th=5)
        with pytest.raises(ValueError, match="does not use"):
            QueueSpec(kind="rio", capacity_bytes=10_000)
        # matching parameters are accepted
        QueueSpec(kind="red", min_th=5, max_th=15)
        QueueSpec(kind="rio", out_max_p=0.2, mean_pkt_time=0.001)
        QueueSpec(kind="droptail", capacity_bytes=10_000)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            FlowSpec("f", "a", "b", transport="sctp")

    def test_qos_transport_requires_target(self):
        with pytest.raises(ValueError, match="target_bps"):
            FlowSpec("f", "a", "b", transport="gtfrc")

    def test_stop_must_follow_start(self):
        with pytest.raises(ValueError, match="stop"):
            FlowSpec("f", "a", "b", start=5.0, stop=5.0)

    def test_transport_specific_params_must_match_transport(self):
        with pytest.raises(ValueError, match="p_scaling"):
            FlowSpec("f", "a", "b", transport="qtpaf", target_bps=1e6,
                     p_scaling=True)
        with pytest.raises(ValueError, match="sack"):
            FlowSpec("f", "a", "b", transport="tfrc", sack=False)
        FlowSpec("f", "a", "b", transport="gtfrc", target_bps=1e6,
                 p_scaling=True)
        FlowSpec("f", "a", "b", transport="tcp", sack=False)

    def test_duplicate_flow_ids_rejected(self):
        topo = TopologySpec(links=(LinkSpec("a", "b", 1e6, 0.01),))
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSpec(
                name="dup",
                topology=topo,
                flows=(FlowSpec("f", "a", "b"), FlowSpec("f", "b", "a")),
            )

    def test_duplicate_directed_links_rejected(self):
        # a->b listed twice (the second would silently replace the
        # first queue/marker inside Network)
        with pytest.raises(ValueError, match="duplicate directed link"):
            TopologySpec(
                links=(
                    LinkSpec("a", "b", 1e6, 0.01),
                    LinkSpec("a", "b", 2e6, 0.02),
                )
            )
        # two duplex specs covering the same pair collide too
        with pytest.raises(ValueError, match="duplicate directed link"):
            TopologySpec(
                links=(
                    LinkSpec("a", "b", 1e6, 0.01),
                    LinkSpec("b", "a", 1e6, 0.01),
                )
            )
        # but two simplex halves are a legitimate asymmetric pair
        TopologySpec(
            links=(
                LinkSpec("a", "b", 1e6, 0.01, duplex=False),
                LinkSpec("b", "a", 5e5, 0.05, duplex=False),
            )
        )

    @pytest.mark.parametrize(
        "rate_bps,delay,field",
        [
            (float("nan"), 0.01, "rate_bps"),
            (float("inf"), 0.01, "rate_bps"),
            (0.0, 0.01, "rate_bps"),
            (-1e6, 0.01, "rate_bps"),
            (1e6, float("nan"), "delay"),
            (1e6, float("inf"), "delay"),
            (1e6, -0.01, "delay"),
        ],
    )
    def test_link_rejects_non_numbers(self, rate_bps, delay, field):
        # NaN is the one that slips past plain ``<`` checks
        with pytest.raises(ValueError, match=f"'a' -> 'b': {field}"):
            LinkSpec("a", "b", rate_bps, delay)

    def test_zero_delay_link_is_legal(self):
        assert LinkSpec("a", "b", 1e6, 0.0).delay == 0.0


class TestSlottedFlowSpec:
    """``FlowSpec`` is slotted (a 100k-flow population holds 100k of
    them); everything that copies or serialises one must still work."""

    FLOW = FlowSpec("f", "a", "b", transport="gtfrc", target_bps=2e6,
                    start=1.0, stop=9.0, size_bytes=50_000)

    def test_has_no_instance_dict(self):
        assert not hasattr(self.FLOW, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.FLOW.start = 2.0

    def test_replace_revalidates(self):
        later = dataclasses.replace(self.FLOW, start=2.0)
        assert (later.start, later.stop, later.flow_id) == (2.0, 9.0, "f")
        with pytest.raises(ValueError, match="stop"):
            dataclasses.replace(self.FLOW, start=9.0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        spec = t1_dumbbell_spec("qtpaf", 4e6, n_cross=2)
        for obj in (self.FLOW, spec):
            clone = pickle.loads(pickle.dumps(obj, protocol))
            assert clone == obj and hash(clone) == hash(obj)

    def test_scenario_json_round_trip(self):
        spec = parking_lot_spec("gtfrc", 2e6)
        payload = json.loads(json.dumps(dataclasses.asdict(spec)))
        assert payload["name"] == "parking_lot"
        flows = tuple(FlowSpec(**flow) for flow in payload["flows"])
        assert flows == spec.flows


class TestChannelSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            ChannelSpec(kind="lossy")

    def test_params_must_match_kind(self):
        with pytest.raises(ValueError, match="does not use"):
            ChannelSpec(kind="bernoulli", loss_rate=0.1, max_jitter=0.01)
        with pytest.raises(ValueError, match="does not use"):
            ChannelSpec(kind="gilbert_elliott", loss_rate=0.1)
        with pytest.raises(ValueError, match="does not use"):
            ChannelSpec(kind="none", loss_rate=0.1)

    def test_required_params_enforced(self):
        with pytest.raises(ValueError, match="requires loss_rate"):
            ChannelSpec(kind="bernoulli")
        with pytest.raises(ValueError, match="requires max_jitter"):
            ChannelSpec(kind="jitter")

    def test_channel_specs_are_frozen_and_hashable(self):
        spec = ChannelSpec(kind="bernoulli", loss_rate=0.05)
        hash(spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.loss_rate = 0.1

    def test_compiler_builds_channel_per_direction(self):
        sim = Simulator(seed=0)
        links = (
            LinkSpec(
                "a", "b", 1e6, 0.01,
                channel=ChannelSpec(kind="bernoulli", loss_rate=0.25),
            ),
        )
        built = build(
            sim, ScenarioSpec("c", TopologySpec(links=links), flows=())
        )
        forward = built.link("a", "b").channel
        reverse = built.link("b", "a").channel
        assert isinstance(forward, BernoulliLossChannel)
        assert isinstance(reverse, BernoulliLossChannel)
        assert forward is not reverse  # fresh instance per direction
        # both draw from the shared named stream
        assert forward._rng is sim.rng("wireless")
        assert reverse._rng is sim.rng("wireless")

    def test_reverse_channel_override_and_none(self):
        sim = Simulator(seed=0)
        links = (
            LinkSpec(
                "a", "b", 1e6, 0.01,
                channel=ChannelSpec(kind="bernoulli", loss_rate=0.25),
                reverse_channel=ChannelSpec(kind="none"),
            ),
            LinkSpec(
                "b", "c", 1e6, 0.01,
                channel=ChannelSpec(kind="jitter", max_jitter=0.002),
                reverse_channel=ChannelSpec(
                    kind="gilbert_elliott", p_g2b=0.1, p_b2g=0.5
                ),
            ),
        )
        built = build(
            sim, ScenarioSpec("c2", TopologySpec(links=links), flows=())
        )
        assert built.link("b", "a").channel is None
        assert isinstance(built.link("b", "c").channel, JitterChannel)
        reverse = built.link("c", "b").channel
        assert isinstance(reverse, GilbertElliottChannel)
        assert reverse.p_g2b == 0.1 and reverse.p_b2g == 0.5

    def test_lossy_chain_preset_matches_hand_built_chain(self):
        # the layout the F2 scaffold used to wire by hand: one Bernoulli
        # channel of the given rate per link direction, hop by hop,
        # every one drawing from the shared "wireless" stream
        sim = Simulator(seed=5)
        built = build(sim, lossy_chain_spec("tcp", 0.1, n_hops=2))
        links = built.net.links
        assert [(link.src.name, link.dst.name) for link in links] == [
            ("h0", "h1"), ("h1", "h0"), ("h1", "h2"), ("h2", "h1"),
        ]
        channels = [link.channel for link in links]
        assert len(set(map(id, channels))) == 4  # one instance per direction
        for channel in channels:
            assert type(channel) is BernoulliLossChannel
            assert channel.loss_rate == 0.1
            assert channel._rng is sim.rng("wireless")

    def test_lossy_chain_clean_path_has_no_channels(self):
        sim = Simulator(seed=0)
        built = build(sim, lossy_chain_spec("tcp", 0.0, n_hops=2))
        for i in range(2):
            assert built.link(f"h{i}", f"h{i + 1}").channel is None

    def test_lossy_chain_bursty_solves_target_rate(self):
        spec = lossy_chain_spec("tfrc", 0.05, bursty=True)
        channel = spec.topology.links[0].channel
        assert channel.kind == "gilbert_elliott"
        sim = Simulator(seed=0)
        built = build(sim, spec)
        ge = built.link("h0", "h1").channel
        assert ge.steady_state_loss_rate() == pytest.approx(0.05, rel=1e-6)


class TestCompiler:
    def test_builds_nodes_links_and_routes(self):
        sim = Simulator()
        built = build(sim, tiny_spec())
        assert set(built.net.nodes) == {"a", "b"}
        assert built.net.node("a").next_hop["b"] == "b"
        # duplex: both directions exist with independent queues
        assert built.queue("a", "b") is not built.queue("b", "a")

    def test_simplex_link(self):
        sim = Simulator()
        spec = ScenarioSpec(
            name="oneway",
            topology=TopologySpec(
                links=(LinkSpec("a", "b", 1e6, 0.01, duplex=False),)
            ),
            flows=(),
        )
        built = build(sim, spec)
        with pytest.raises(KeyError):
            built.link("b", "a")

    @pytest.mark.parametrize(
        "flow,direction",
        [
            # the data path exists, the ACK path does not
            (dict(src="a", dst="b"), r"reverse \(ACK\) route 'b' -> 'a'"),
            (dict(src="b", dst="a"), "forward route 'b' -> 'a'"),
            # a scheduled start used to fail from inside the event loop
            (dict(src="b", dst="a", start=3.0), "forward route 'b' -> 'a'"),
            (dict(src="a", dst="nowhere"), "forward route 'a' -> 'nowhere'"),
        ],
    )
    def test_unroutable_flow_rejected_at_build(self, flow, direction):
        sim = Simulator()
        spec = ScenarioSpec(
            name="oneway",
            topology=TopologySpec(
                links=(LinkSpec("a", "b", 1e6, 0.01, duplex=False),)
            ),
            flows=(FlowSpec("f", **flow),),
        )
        with pytest.raises(
            ValueError, match=f"scenario 'oneway': flow 'f' has no {direction}"
        ):
            build(sim, spec)
        assert sim.pending == 0  # rejected before anything is scheduled

    def test_queue_kinds(self):
        sim = Simulator()
        links = (
            LinkSpec("a", "b", 1e6, 0.01, queue=QueueSpec(kind="red")),
            LinkSpec(
                "b", "c", 1e6, 0.01,
                queue=QueueSpec(kind="rio"),
                reverse_queue=QueueSpec(kind="droptail", capacity_packets=7),
            ),
        )
        built = build(
            sim, ScenarioSpec("q", TopologySpec(links=links), flows=())
        )
        assert isinstance(built.queue("a", "b"), RedQueue)
        assert isinstance(built.queue("b", "c"), RioQueue)
        assert isinstance(built.queue("c", "b"), DropTailQueue)
        assert built.queue("c", "b").capacity_packets == 7

    def test_droptail_bytes_bound_keeps_default_packet_bound(self):
        sim = Simulator()
        links = (
            LinkSpec(
                "a", "b", 1e6, 0.01,
                queue=QueueSpec(kind="droptail", capacity_bytes=50_000),
            ),
        )
        built = build(
            sim, ScenarioSpec("q", TopologySpec(links=links), flows=())
        )
        q = built.queue("a", "b")
        assert q.capacity_bytes == 50_000
        assert q.capacity_packets == 100  # class default preserved

    def test_rio_mean_pkt_time_derives_from_link_rate(self):
        sim = Simulator()
        links = (LinkSpec("a", "b", 10e6, 0.01, queue=QueueSpec(kind="rio")),)
        built = build(
            sim, ScenarioSpec("q", TopologySpec(links=links), flows=())
        )
        assert built.queue("a", "b").mean_pkt_time == pytest.approx(0.0008)

    def test_markers_installed_forward_only(self):
        sim = Simulator()
        marker = MarkerSpec(sla=SlaSpec("f", 1e6))
        links = (LinkSpec("a", "b", 1e6, 0.01, marker=marker),)
        built = build(
            sim, ScenarioSpec("m", TopologySpec(links=links), flows=())
        )
        assert isinstance(built.markers["a->b"], ProfileMarker)
        assert built.link("a", "b").marker is built.markers["a->b"]
        assert built.link("b", "a").marker is None
        assert built.slas["f"].committed_rate_bps == 1e6

    def test_best_effort_marker(self):
        sim = Simulator()
        links = (
            LinkSpec(
                "a", "b", 1e6, 0.01,
                marker=MarkerSpec(default_color="yellow"),
            ),
        )
        built = build(
            sim, ScenarioSpec("m", TopologySpec(links=links), flows=())
        )
        marker = built.markers["a->b"]
        assert isinstance(marker, BestEffortMarker)
        assert marker.color is Color.YELLOW

    def test_per_occurrence_meters_are_independent(self):
        # two MarkerSpecs for the same flow build two meters (per-hop SLAs)
        sim = Simulator()
        ms = MarkerSpec(sla=SlaSpec("f", 1e6))
        links = (
            LinkSpec("a", "b", 1e6, 0.01, marker=ms),
            LinkSpec("b", "c", 1e6, 0.01, marker=ms),
        )
        built = build(
            sim, ScenarioSpec("m", TopologySpec(links=links), flows=())
        )
        assert built.markers["a->b"].meter is not built.markers["b->c"].meter

    def test_flow_record_flag(self):
        sim = Simulator()
        built = build(sim, tiny_spec(record=False))
        assert built.recorders == {}
        with pytest.raises(KeyError):
            built.recorder("f")

    def test_deferred_start_and_stop(self):
        sim = Simulator()
        built = build(sim, tiny_spec(start=1.0, stop=2.0))
        sender = built.senders["f"]
        assert not sender._running
        sim.run(until=1.5)
        assert sender._running
        sim.run(until=2.5)
        assert not sender._running

    def test_transports_build_expected_endpoints(self):
        sim = Simulator()
        spec = t1_dumbbell_spec("qtpaf", 2e6, n_cross=1)
        built = build(sim, spec)
        assert built.senders["assured"].profile.name == "QTPAF"
        assert type(built.senders["x1"]).__name__ == "TcpSender"

    def test_gtfrc_p_scaling_controller(self):
        sim = Simulator()
        built = build(
            sim,
            tiny_spec(transport="gtfrc", target_bps=1e6, p_scaling=True),
        )
        assert built.senders["f"].controller.p_scaling is True

    def test_built_scenario_runs_end_to_end(self):
        sim = Simulator(seed=7)
        built = build(sim, t1_dumbbell_spec("gtfrc", 2e6, n_cross=2))
        sim.run(until=3.0)
        assert built.recorder("assured").delivered_bytes > 0
        assert built.queue("left", "right").stats.enqueued > 0


class TestPresets:
    def test_t1_matches_historical_dumbbell_layout(self):
        sim = Simulator()
        built = build(sim, t1_dumbbell_spec("qtpaf", 4e6, n_cross=2))
        # same node names, routes and bottleneck discipline as topology.dumbbell
        assert set(built.net.nodes) == {
            "left", "right", "s0", "d0", "s1", "d1", "s2", "d2"
        }
        assert built.net.node("s0").next_hop["d0"] == "left"
        assert isinstance(built.queue("left", "right"), RioQueue)
        assert isinstance(built.queue("right", "left"), RioQueue)
        assert "s0->left" in built.markers

    def test_parking_lot_has_two_conditioned_bottlenecks(self):
        sim = Simulator()
        built = build(
            sim, parking_lot_spec("qtpaf", 4e6, n_cross_a=1, n_cross_b=1)
        )
        assert isinstance(built.queue("r0", "r1"), RioQueue)
        assert isinstance(built.queue("r1", "r2"), RioQueue)
        assert "s0->r0" in built.markers and "r1->r2" in built.markers
        assert built.markers["s0->r0"].meter is not built.markers["r1->r2"].meter

    def test_parking_lot_slas_expose_the_edge_contract(self):
        # with distinct per-hop rates, built.slas holds the domain-edge
        # SLA (first marker in link order), not the hop-2 re-meter
        sim = Simulator()
        built = build(
            sim,
            parking_lot_spec(
                "qtpaf", 4e6, n_cross_a=1, n_cross_b=1, hop2_target_bps=6e6
            ),
        )
        assert built.slas["assured"].committed_rate_bps == 4e6
        assert built.markers["r1->r2"].meter is not None  # hop-2 still metered

    def test_reverse_path_flows_oppose_assured(self):
        spec = reverse_path_chain_spec("gtfrc", 4e6, n_hops=2, n_reverse=3)
        assured = spec.flows[0]
        rev = spec.flows[1]
        assert (assured.src, assured.dst) == ("h0", "h2")
        assert (rev.src, rev.dst) == ("h2", "h0")
        assert sum(1 for f in spec.flows if f.transport == "tcp") == 3

    def test_hetero_sla_one_marker_per_assured_flow(self):
        sim = Simulator()
        built = build(
            sim, hetero_sla_dumbbell_spec("gtfrc", (1e6, 2e6), n_cross=1)
        )
        assert built.slas["af0"].committed_rate_bps == 1e6
        assert built.slas["af1"].committed_rate_bps == 2e6
        assert "s0->left" in built.markers and "s1->left" in built.markers

    def test_hetero_sla_requires_targets(self):
        with pytest.raises(ValueError, match="target"):
            hetero_sla_dumbbell_spec("gtfrc", ())
