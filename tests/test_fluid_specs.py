"""BackgroundLoadSpec validation and population -> background derivation."""

import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fluid import (
    BACKGROUND_KINDS,
    BackgroundLoadSpec,
    add_population_background,
    hybridize,
)
from repro.fluid import derive as derive_mod
from repro.fluid.derive import (
    _class_of,
    background_from_population,
    background_from_population_flows,
)
from repro.harness.experiments import flash_crowd as flash_crowd_mod
from repro.harness.experiments.flash_crowd import (
    flash_crowd_foreground_spec,
    flash_crowd_population,
    flash_crowd_spec,
)
from repro.harness.experiments.hybrid import hybrid_flash_crowd_scenario
from repro.harness.experiments.mice_elephants import (
    mice_elephants_population,
    mice_elephants_spec,
)
from repro.topo.generators import access_star_endpoints
from repro.topo.specs import FlowSpec, ScenarioSpec
from repro.traffic import ArrivalSpec, FlowClassSpec, PopulationSpec, SizeSpec
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
        # nan used to construct (nan < 0 is false) and poison the ledger
        for entry in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="non-negative"):
                BackgroundLoadSpec(kind="population", profile=(100.0, entry))

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
        with pytest.raises(ValueError, match="per_flow_rate_bps"):
            background_from_population(_CROWD, 0, per_flow_rate_bps=-1.0)
        for door in DOORS:
            with pytest.raises(ValueError, match="per_flow_rate_bps"):
                door(per_flow_rate_bps=-1.0)

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


#: The small crowd the error and split tests share.
_CROWD = flash_crowd_population(n_hosts=8, n_flows=6)


def _via_hybridize(classes=None, **kwargs):
    """Door 2: the full packet-level spec, its crowd then fluidized."""
    spec = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
    return hybridize(
        spec, _CROWD, seed=1, background_classes=classes, **kwargs
    )


def _via_population(classes=None, **kwargs):
    """Door 1: the foreground-only spec plus the derived background."""
    foreground = flash_crowd_foreground_spec("gtfrc", 4e6, n_hosts=8)
    return add_population_background(
        foreground, _CROWD, seed=1, classes=classes, **kwargs
    )


#: Both ways to a hybrid spec; what holds for one holds for the other.
DOORS = (_via_hybridize, _via_population)


class TestDerive:
    def test_class_of_longest_match_wins(self):
        assert _class_of("mice12", {"mice", "mice1"}) == "mice1"
        assert _class_of("mice12", {"mice"}) == "mice"
        assert _class_of("other3", {"mice"}) is None

    def test_background_from_population_unknown_class(self):
        with pytest.raises(ValueError, match="no class"):
            background_from_population(_CROWD, 0, classes=("rat",))

    def test_background_from_population_is_elastic_by_default(self):
        bg = background_from_population(_CROWD, 0)
        assert bg.kind == "population"
        assert bg.elastic is True
        assert sum(bg.profile) > 0

    def test_hybridize_splits_foreground_and_background(self):
        expected = sum(f.size_bytes for f in expand_population(_CROWD, 1))
        for door in DOORS:
            hybrid = door()
            # only the declared (non-population) foreground flow survives
            assert [f.flow_id for f in hybrid.flows] == ["assured"]
            bottleneck = [
                ls for ls in hybrid.topology.links if ls.background is not None
            ]
            assert len(bottleneck) == 1
            assert bottleneck[0].queue.kind == "rio"
            # demand is byte-identical to the packet-level population
            assert sum(bottleneck[0].background.profile) == pytest.approx(
                expected
            )

    def test_hybridize_derives_foreground_floor_from_committed_rates(self):
        for door in DOORS:
            bg = next(
                ls.background
                for ls in door().topology.links
                if ls.background is not None
            )
            # assured 4 Mb/s over the 20 Mb/s bottleneck, plus the margin
            assert bg.min_foreground_share == pytest.approx(4e6 / 20e6 + 0.05)

    def test_hybridize_without_population_flows_refuses(self):
        foreground_only = flash_crowd_foreground_spec("gtfrc", 4e6, n_hosts=8)
        with pytest.raises(ValueError, match="nothing to hybridize"):
            hybridize(foreground_only, _CROWD, seed=1)

    def test_add_population_background_refuses_double_counting(self):
        # the mirror image: a spec that already carries the crowd as
        # packet flows would get it a second time as fluid
        full = flash_crowd_spec("gtfrc", 4e6, n_hosts=8, n_flows=6, seed=1)
        with pytest.raises(ValueError, match="count it twice"):
            add_population_background(full, _CROWD, seed=1)

    def test_hybridize_unknown_attach_point(self):
        for door in DOORS:
            with pytest.raises(ValueError, match="not in the topology"):
                door(at=[("gw", "nowhere")])

    def test_hybridize_unknown_background_class(self):
        for door in DOORS:
            with pytest.raises(ValueError, match="no class"):
                door(classes=("rat",))


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

    @pytest.mark.parametrize("fidelity", ["hybrid", "packet"])
    def test_one_scenario_call_builds_only_what_it_runs(
        self, monkeypatch, fidelity
    ):
        expansions = []

        def counting(population, seed):
            expansions.append((population.name, seed))
            return expand_population(population, seed)

        # both places a hybrid run could expand from
        monkeypatch.setattr(flash_crowd_mod, "expand_population", counting)
        monkeypatch.setattr(derive_mod, "expand_population", counting)
        built = []
        validate = FlowSpec.__post_init__

        def counting_validate(flow):
            built.append(flow.flow_id)
            validate(flow)

        monkeypatch.setattr(FlowSpec, "__post_init__", counting_validate)
        hybrid_flash_crowd_scenario(
            fidelity=fidelity, n_hosts=8, n_flows=12, duration=1.0,
            warmup=0.2, seed=3,
        )
        if fidelity == "hybrid":
            # the crowd is drawn, binned and gone: no expansion, and the
            # assured flow is the only FlowSpec the call constructs
            assert expansions == []
            assert built == ["assured"]
        else:
            assert expansions == [("crowd", 3)]
            assert built[0] == "assured" and len(built) > 1


class TestBothDoorsAreOneFunction:
    """Door 1 (derive from the population) and door 2 (``hybridize`` the
    expanded spec) are the same function of ``(population, seed)``."""

    KWARGS = dict(epoch=0.05, per_flow_rate_bps=500e3)

    @staticmethod
    def _background(spec):
        attached = [
            ls.background
            for ls in spec.topology.links
            if ls.background is not None
        ]
        assert len(attached) == 1
        return attached[0]

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_flash_crowd(self, seed):
        population = flash_crowd_population()
        derived = add_population_background(
            flash_crowd_foreground_spec("gtfrc", 4e6), population, seed,
            **self.KWARGS,
        )
        converted = hybridize(
            flash_crowd_spec("gtfrc", 4e6, seed=seed), population, seed,
            **self.KWARGS,
        )
        assert self._background(derived) == self._background(converted)
        assert derived == converted

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_mice_elephants_with_a_class_filter(self, seed):
        population = mice_elephants_population("gtfrc", 2e6)
        full = mice_elephants_spec("gtfrc", 2e6, seed=seed)
        # the elephants are population flows that stay packet-level, so
        # door 1's foreground has to come out of the expansion here
        foreground = replace(
            full,
            flows=tuple(
                f for f in full.flows if f.flow_id.startswith("elephant")
            ),
        )
        derived = add_population_background(
            foreground, population, seed, classes=("mice",), **self.KWARGS
        )
        converted = hybridize(
            full, population, seed, background_classes=("mice",),
            **self.KWARGS,
        )
        assert self._background(derived) == self._background(converted)
        assert derived == converted

    @given(
        st.sampled_from(
            [
                ArrivalSpec(kind="poisson", rate_per_s=40.0),
                ArrivalSpec(
                    kind="onoff", rate_per_s=80.0, mean_on=0.3, mean_off=0.2
                ),
                ArrivalSpec(
                    kind="flash_crowd", base_rate_per_s=5.0,
                    peak_rate_per_s=80.0, ramp_start=0.5, ramp_duration=1.0,
                ),
            ]
        ),
        st.lists(
            st.sampled_from(
                [
                    SizeSpec(kind="fixed", size_bytes=30_000),
                    SizeSpec(kind="exponential", mean_bytes=20_000.0),
                    SizeSpec(
                        kind="pareto", alpha=1.3, min_bytes=4_000,
                        max_bytes=120_000,
                    ),
                ]
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=6),  # class filter, as a bitmask
        st.integers(min_value=0, max_value=50),
        st.sampled_from([None, 200e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_streamed_profile_equals_binning_the_expansion(
        self, arrival, sizes, mask, seed, pace
    ):
        names = ("mice", "rat", "elephant")[: len(sizes)]
        population = PopulationSpec(
            name="pop",
            arrival=arrival,
            classes=tuple(
                FlowClassSpec(name, 1.0 + k, "tcp", size)
                for k, (name, size) in enumerate(zip(names, sizes))
            ),
            endpoints=access_star_endpoints(8),
            n_flows=60,
            horizon=3.0,
        )
        chosen = tuple(n for k, n in enumerate(names) if mask >> k & 1)
        classes = chosen or None  # an empty filter means "all classes"
        selected = set(classes or names)
        flows = [
            f
            for f in expand_population(population, seed)
            if _class_of(f.flow_id, names) in selected
        ]
        assert background_from_population(
            population, seed, epoch=0.05, per_flow_rate_bps=pace,
            classes=classes,
        ).profile == offered_load_profile(
            flows, 0.05, per_flow_rate_bps=pace
        )

    def test_streaming_memory_does_not_grow_with_the_population(self):
        # a count of bytes, not a timing: door 1 holds the profile and
        # one draw, never the arrivals or the flows (the list-building
        # derivation this replaced grew ~10x here)
        peaks = []
        for n_flows in (5_000, 50_000):
            # rates scale with n_flows: same horizon, same profile bins
            scale = n_flows / 5_000
            population = flash_crowd_population(
                n_hosts=64, n_flows=n_flows, base_rate_per_s=100.0 * scale,
                peak_rate_per_s=1500.0 * scale, ramp_start=1.0,
                ramp_duration=2.0, duration=6.0,
            )
            tracemalloc.start()
            try:
                background_from_population(population, 1, **self.KWARGS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        small, large = peaks
        assert large <= 1.5 * small
