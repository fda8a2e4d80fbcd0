"""BackgroundLoadSpec validation and population -> background derivation."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fluid import BACKGROUND_KINDS, BackgroundLoadSpec, hybridize
from repro.fluid import derive as derive_mod
from repro.fluid.derive import (
    _class_of,
    background_from_population,
    background_from_population_flows,
)
from repro.harness.experiments import flash_crowd as flash_crowd_mod
from repro.harness.experiments.flash_crowd import (
    flash_crowd_population,
    flash_crowd_spec,
)
from repro.harness.experiments.hybrid import hybrid_flash_crowd_scenario
from repro.harness.experiments.mice_elephants import (
    mice_elephants_population,
    mice_elephants_spec,
)
from repro.topo.specs import FlowSpec, ScenarioSpec
from repro.traffic.population import expand_population, offered_load_profile


class TestSpecValidation:
    def test_kinds_constant(self):
        assert BACKGROUND_KINDS == ("constant", "mmpp", "population")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown background kind"):
            BackgroundLoadSpec(kind="sawtooth")

    def test_constant_requires_rate(self):
        with pytest.raises(ValueError, match="rate_bps"):
            BackgroundLoadSpec(kind="constant")
        with pytest.raises(ValueError, match="rate_bps"):
            BackgroundLoadSpec(kind="constant", rate_bps=-1.0)

    def test_stray_parameters_rejected(self):
        # the QueueSpec convention: a tunable the kind does not consume
        # is an error, never silently ignored
        with pytest.raises(ValueError, match="does not use"):
            BackgroundLoadSpec(kind="constant", rate_bps=1e6, profile=(1.0,))
        with pytest.raises(ValueError, match="does not use"):
            BackgroundLoadSpec(
                kind="population", profile=(1.0,), rate_high_bps=1e6
            )

    def test_mmpp_requires_dwell_and_high_rate(self):
        with pytest.raises(ValueError, match="mmpp background requires"):
            BackgroundLoadSpec(kind="mmpp", rate_high_bps=1e6)
        with pytest.raises(ValueError, match="dwell"):
            BackgroundLoadSpec(
                kind="mmpp",
                rate_high_bps=1e6,
                mean_low_s=0.0,
                mean_high_s=0.5,
            )

    def test_mmpp_low_rate_defaults_to_silent(self):
        spec = BackgroundLoadSpec(
            kind="mmpp", rate_high_bps=1e6, mean_low_s=0.5, mean_high_s=0.5
        )
        assert spec.rate_low_bps is None  # source treats None as 0.0

    def test_population_requires_profile(self):
        with pytest.raises(ValueError, match="profile"):
            BackgroundLoadSpec(kind="population")
        with pytest.raises(ValueError, match="non-negative"):
            BackgroundLoadSpec(kind="population", profile=(100.0, -1.0))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"epoch": 0.0}, "epoch"),
            ({"start": -1.0}, "start"),
            ({"stop": 0.0, "start": 1.0}, "stop"),
            ({"mean_pkt_bytes": 0.0}, "mean_pkt_bytes"),
            ({"min_foreground_share": 0.0}, "min_foreground_share"),
            ({"min_foreground_share": 1.5}, "min_foreground_share"),
            ({"buffer_packets": -2}, "buffer_packets"),
        ],
    )
    def test_common_knob_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BackgroundLoadSpec(kind="constant", rate_bps=1e6, **kwargs)


def _finite_flows(sizes_and_starts):
    return tuple(
        FlowSpec(
            f"bg{i}",
            "a",
            "b",
            transport="tcp",
            start=start,
            size_bytes=size,
        )
        for i, (size, start) in enumerate(sizes_and_starts)
    )


def _reference_profile(flows, epoch, horizon=None, per_flow_rate_bps=None):
    """The two-pass loop ``offered_load_profile`` replaced (PR 12), kept
    as the oracle: every bin clamps ``[start, end]`` against its own
    edges, computed on the spot."""
    deposits = []  # (start, end, bytes)
    end_max = 0.0
    for flow in flows:
        if per_flow_rate_bps:
            duration = flow.size_bytes * 8.0 / per_flow_rate_bps
        else:
            duration = 0.0
        deposits.append(
            (flow.start, flow.start + duration, float(flow.size_bytes))
        )
        end_max = max(end_max, flow.start + duration)
    truncate = horizon is not None
    if horizon is None:
        horizon = end_max
    n_bins = max(1, int(horizon / epoch) + 1) if horizon > 0 else 1
    bins = [0.0] * n_bins
    for start, end, size in deposits:
        if truncate and start >= horizon > 0:
            continue
        first = int(start / epoch)
        if end <= start:
            if first < n_bins:
                bins[first] += size
            continue
        rate = size / (end - start)
        last = min(int(end / epoch), n_bins - 1)
        for idx in range(first, last + 1):
            lo = max(start, idx * epoch)
            hi = min(end, (idx + 1) * epoch)
            if hi > lo:
                bins[idx] += rate * (hi - lo)
    return tuple(bins)


#: Deposits relative to a bin grid of width ``epoch``: (start in epochs,
#: length in epochs, bytes).  Whole-number starts and lengths put
#: deposits exactly on an edge; fractions cover "inside one bin",
#: "across two" and "across many".
_grid_deposits = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=40).map(float),
            st.floats(min_value=0.0, max_value=40.0),
        ),
        st.one_of(
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 7.0]),
            st.floats(min_value=0.01, max_value=30.0),
        ),
        st.integers(min_value=1, max_value=500_000),
    ),
    min_size=1,
    max_size=20,
)


class TestOfferedLoadProfile:
    @given(
        _grid_deposits,
        st.sampled_from([0.05, 0.1, 0.25, 0.3, 1.0 / 3.0]),
        st.one_of(
            st.none(),
            st.sampled_from([0.0, 1.0, 2.5, 10.0]),
            st.floats(min_value=0.0, max_value=15.0),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_spread_profile_equals_reference_loop(
        self, deposits, epoch, horizon
    ):
        # one pacing rate for all flows, so a deposit's length in epochs
        # is set through its size: length = size * 8 / pace / epoch
        pace = 8.0 * 1000.0 / epoch  # 1000 bytes last exactly one epoch
        flows = tuple(
            FlowSpec(
                f"bg{i}", "a", "b", transport="tcp", start=start * epoch,
                size_bytes=max(1, round(length * 1000)),
            )
            for i, (start, length, _) in enumerate(deposits)
        )
        assert offered_load_profile(
            flows, epoch, horizon=horizon, per_flow_rate_bps=pace
        ) == _reference_profile(
            flows, epoch, horizon=horizon, per_flow_rate_bps=pace
        )

    @given(
        _grid_deposits,
        st.floats(min_value=0.01, max_value=0.5),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=15.0)),
        st.one_of(
            st.none(), st.just(0.0), st.floats(min_value=20e3, max_value=50e6)
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_profile_equals_reference_loop(
        self, deposits, epoch, horizon, pace
    ):
        # free-form: arbitrary epochs, point deposits (pace None / 0),
        # explicit-horizon truncation
        flows = _finite_flows(
            [(size, start) for start, _, size in deposits]
        )
        assert offered_load_profile(
            flows, epoch, horizon=horizon, per_flow_rate_bps=pace
        ) == _reference_profile(
            flows, epoch, horizon=horizon, per_flow_rate_bps=pace
        )

    def test_profile_accepts_a_one_shot_iterable(self):
        flows = _finite_flows([(1000, 0.0), (2000, 0.33), (500, 1.2)])
        assert offered_load_profile(
            iter(flows), 0.1, per_flow_rate_bps=100e3
        ) == offered_load_profile(flows, 0.1, per_flow_rate_bps=100e3)

    @pytest.mark.parametrize("pace", [None, 0, 0.0])
    def test_no_pacing_rate_deposits_in_the_arrival_epoch(self, pace):
        flows = _finite_flows([(1000, 0.0), (2000, 0.25)])
        profile = offered_load_profile(flows, 0.1, per_flow_rate_bps=pace)
        assert profile == (1000.0, 0.0, 2000.0)

    def test_negative_pacing_rate_rejected(self):
        # used to return (0.0,): a negative duration read as a point
        # deposit past a zero-length horizon, and the background vanished
        flows = _finite_flows([(1000, 0.0)])
        with pytest.raises(ValueError, match="per_flow_rate_bps"):
            offered_load_profile(flows, 0.1, per_flow_rate_bps=-5.0)
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        with pytest.raises(ValueError, match="per_flow_rate_bps"):
            background_from_population(population, 0, per_flow_rate_bps=-1.0)
        spec = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
        with pytest.raises(ValueError, match="per_flow_rate_bps"):
            hybridize(spec, population, seed=1, per_flow_rate_bps=-1.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500_000),
                st.floats(min_value=0.0, max_value=20.0),
            ),
            min_size=1,
            max_size=25,
        ),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_point_deposits_conserve_bytes(self, sizes_and_starts, epoch):
        flows = _finite_flows(sizes_and_starts)
        profile = offered_load_profile(flows, epoch)
        total = sum(size for size, _ in sizes_and_starts)
        assert sum(profile) == pytest.approx(total, rel=1e-9)
        assert all(b >= 0.0 for b in profile)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500_000),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=15,
        ),
        st.floats(min_value=0.02, max_value=0.2),
        st.floats(min_value=50e3, max_value=5e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_paced_deposits_conserve_bytes(
        self, sizes_and_starts, epoch, pace
    ):
        flows = _finite_flows(sizes_and_starts)
        profile = offered_load_profile(flows, epoch, per_flow_rate_bps=pace)
        total = sum(size for size, _ in sizes_and_starts)
        assert sum(profile) == pytest.approx(total, rel=1e-9)
        assert all(b >= 0.0 for b in profile)

    def test_unbounded_flow_rejected(self):
        flow = FlowSpec("bulk", "a", "b", transport="tcp")
        with pytest.raises(ValueError, match="size_bytes"):
            offered_load_profile((flow,), 0.05)

    def test_horizon_truncates(self):
        flows = _finite_flows([(1000, 0.0), (2000, 5.0)])
        profile = offered_load_profile(flows, 0.1, horizon=1.0)
        assert sum(profile) == pytest.approx(1000.0)


class TestDerive:
    def test_class_of_longest_match_wins(self):
        assert _class_of("mice12", {"mice", "mice1"}) == "mice1"
        assert _class_of("mice12", {"mice"}) == "mice"
        assert _class_of("other3", {"mice"}) is None

    def test_background_from_population_unknown_class(self):
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        with pytest.raises(ValueError, match="no class"):
            background_from_population(population, 0, classes=("rat",))

    def test_background_from_population_is_elastic_by_default(self):
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        bg = background_from_population(population, 0)
        assert bg.kind == "population"
        assert bg.elastic is True
        assert sum(bg.profile) > 0

    def test_hybridize_splits_foreground_and_background(self):
        spec = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        hybrid = hybridize(spec, population, seed=1)
        # only the declared (non-population) foreground flow survives
        assert [f.flow_id for f in hybrid.flows] == ["assured"]
        bottleneck = [
            ls for ls in hybrid.topology.links if ls.background is not None
        ]
        assert len(bottleneck) == 1
        assert bottleneck[0].queue.kind == "rio"
        # demand is byte-identical to the packet-level population
        expected = sum(
            f.size_bytes for f in spec.flows if f.flow_id != "assured"
        )
        assert sum(bottleneck[0].background.profile) == pytest.approx(expected)

    def test_hybridize_derives_foreground_floor_from_committed_rates(self):
        spec = flash_crowd_spec(
            "gtfrc", 4e6, n_hosts=8, n_flows=6, bottleneck_bps=20e6, seed=1
        )
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        hybrid = hybridize(spec, population, seed=1)
        bg = next(
            ls.background
            for ls in hybrid.topology.links
            if ls.background is not None
        )
        assert bg.min_foreground_share == pytest.approx(4e6 / 20e6 + 0.05)

    def test_hybridize_without_population_flows_refuses(self):
        spec = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        foreground_only = replace(spec, flows=(spec.flows[0],))
        with pytest.raises(ValueError, match="nothing to hybridize"):
            hybridize(foreground_only, population, seed=1)

    def test_hybridize_unknown_attach_point(self):
        spec = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        with pytest.raises(ValueError, match="not in the topology"):
            hybridize(spec, population, seed=1, at=[("gw", "nowhere")])

    def test_hybridize_unknown_background_class(self):
        spec = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        with pytest.raises(ValueError, match="no class"):
            hybridize(spec, population, seed=1, background_classes=("rat",))


def _hybridize_by_reexpansion(
    spec, population, seed, background_classes=None, epoch=0.05,
    per_flow_rate_bps=None,
):
    """``hybridize`` as it selected the background before PR 12: the ids
    of a *fresh* ``expand_population(population, seed)``, nothing else.
    The oracle for the id-parsing rule that replaced it."""
    known = {cls.name for cls in population.classes}
    selected = set(background_classes) if background_classes else known
    expanded_ids = {
        f.flow_id
        for f in expand_population(population, seed)
        if _class_of(f.flow_id, known) in selected
    }
    background = tuple(f for f in spec.flows if f.flow_id in expanded_ids)
    foreground = tuple(f for f in spec.flows if f.flow_id not in expanded_ids)
    bottlenecks = [
        ls for ls in spec.topology.links if ls.queue.kind in ("red", "rio")
    ]
    committed = sum(f.target_bps or 0.0 for f in foreground)
    share = committed / min(ls.rate_bps for ls in bottlenecks) + 0.05
    bg_spec = background_from_population_flows(
        background, epoch, per_flow_rate_bps=per_flow_rate_bps,
        min_foreground_share=min(0.95, max(0.05, share)),
    )
    links = tuple(
        replace(ls, background=bg_spec) if ls in bottlenecks else ls
        for ls in spec.topology.links
    )
    return ScenarioSpec(
        name=f"{spec.name}:hybrid",
        topology=replace(spec.topology, links=links),
        flows=foreground,
        description=spec.description,
    )


class TestHybridizeSelectsWithoutReexpanding:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_flash_crowd_equals_reexpansion_rule(self, seed):
        # the registered hybrid_flash_crowd scenario's spec side
        spec = flash_crowd_spec("gtfrc", 4e6, seed=seed)
        population = flash_crowd_population()
        kwargs = dict(epoch=0.05, per_flow_rate_bps=500e3)
        assert hybridize(
            spec, population, seed=seed, **kwargs
        ) == _hybridize_by_reexpansion(spec, population, seed, **kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_mice_elephants_equals_reexpansion_rule(self, seed):
        # hybrid_mice_elephants: only the mice are fluidized, every
        # elephant (and its srTCM marker) stays packet-level
        spec = mice_elephants_spec("gtfrc", 2e6, seed=seed)
        population = mice_elephants_population("gtfrc", 2e6)
        kwargs = dict(
            background_classes=("mice",), epoch=0.05, per_flow_rate_bps=500e3
        )
        hybrid = hybridize(spec, population, seed=seed, **kwargs)
        assert hybrid == _hybridize_by_reexpansion(
            spec, population, seed, **kwargs
        )
        assert hybrid.flows and all(
            f.flow_id.startswith("elephant") for f in hybrid.flows
        )

    @pytest.mark.parametrize(
        "change",
        [
            dict(transport="tfrc"),  # not the class's transport
            dict(src="srv", dst="h1"),  # not one of population.endpoints
            dict(flow_id="mouse6"),  # index >= n_flows
            dict(size_bytes=None),  # unbounded: no offered volume
        ],
    )
    def test_flow_named_like_the_population_but_not_from_it(self, change):
        spec = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
        population = flash_crowd_population(n_hosts=8, n_flows=6)
        flows = list(spec.flows)
        flows[2] = replace(flows[2], **change)
        with pytest.raises(ValueError, match="does not match"):
            hybridize(replace(spec, flows=tuple(flows)), population, seed=1)

    def test_one_scenario_call_expands_the_population_once(self, monkeypatch):
        calls = []

        def counting(population, seed):
            calls.append((population.name, seed))
            return expand_population(population, seed)

        # both places a hybrid run could expand from
        monkeypatch.setattr(flash_crowd_mod, "expand_population", counting)
        monkeypatch.setattr(derive_mod, "expand_population", counting)
        hybrid_flash_crowd_scenario(
            fidelity="hybrid", n_hosts=8, n_flows=12, duration=1.0,
            warmup=0.2, seed=3,
        )
        assert calls == [("crowd", 3)]
