"""Validation tests for the repro.traffic spec vocabulary."""

import pytest

from repro.traffic import (
    ARRIVAL_KINDS,
    SIZE_KINDS,
    ArrivalSpec,
    FlowClassSpec,
    PopulationSpec,
    SizeSpec,
)

POISSON = ArrivalSpec(kind="poisson", rate_per_s=5.0)
FIXED = SizeSpec(kind="fixed", size_bytes=10_000)
MOUSE = FlowClassSpec("mouse", 1.0, "tcp", FIXED)
ENDPOINTS = (("h0", "srv"), ("h1", "srv"))


class TestArrivalSpec:
    def test_kinds_constant(self):
        assert ARRIVAL_KINDS == ("poisson", "onoff", "flash_crowd")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ArrivalSpec(kind="weibull")

    def test_stray_parameter_rejected(self):
        # a poisson spec with an on/off knob set would silently ignore it
        with pytest.raises(ValueError, match="does not use parameter"):
            ArrivalSpec(kind="poisson", rate_per_s=5.0, mean_on=1.0)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="requires parameter"):
            ArrivalSpec(kind="onoff", rate_per_s=5.0, mean_on=1.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate_per_s must be positive"):
            ArrivalSpec(kind="poisson", rate_per_s=rate)

    def test_flash_crowd_base_above_peak_rejected(self):
        with pytest.raises(ValueError, match="base_rate_per_s"):
            ArrivalSpec(
                kind="flash_crowd",
                base_rate_per_s=50.0,
                peak_rate_per_s=10.0,
                ramp_start=1.0,
                ramp_duration=1.0,
            )

    def test_flash_crowd_zero_ramp_duration_rejected(self):
        with pytest.raises(ValueError, match="ramp_duration"):
            ArrivalSpec(
                kind="flash_crowd",
                base_rate_per_s=1.0,
                peak_rate_per_s=10.0,
                ramp_start=1.0,
                ramp_duration=0.0,
            )

    def test_flash_crowd_zero_base_allowed(self):
        spec = ArrivalSpec(
            kind="flash_crowd",
            base_rate_per_s=0.0,
            peak_rate_per_s=10.0,
            ramp_start=0.0,
            ramp_duration=2.0,
        )
        assert spec.base_rate_per_s == 0.0


class TestSizeSpec:
    def test_kinds_constant(self):
        assert SIZE_KINDS == ("fixed", "exponential", "pareto")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown size kind"):
            SizeSpec(kind="lognormal")

    def test_stray_parameter_rejected(self):
        with pytest.raises(ValueError, match="does not use parameter"):
            SizeSpec(kind="fixed", size_bytes=100, alpha=1.2)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="requires parameter"):
            SizeSpec(kind="pareto", alpha=1.2)

    def test_pareto_max_below_min_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            SizeSpec(kind="pareto", alpha=1.2, min_bytes=1000, max_bytes=10)

    def test_min_bytes_floor(self):
        with pytest.raises(ValueError, match="min_bytes"):
            SizeSpec(kind="exponential", mean_bytes=100.0, min_bytes=0)


class TestFlowClassSpec:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="weight must be positive"):
            FlowClassSpec("m", 0.0, "tcp", FIXED)

    def test_assured_transport_requires_target(self):
        with pytest.raises(ValueError, match="requires target_bps"):
            FlowClassSpec("e", 1.0, "gtfrc", FIXED)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            FlowClassSpec("m", 1.0, "udp", FIXED)

    def test_name_ending_in_a_digit_rejected(self):
        # flow ids are f"{name}{i}": next to a class "a", flow 1 of "a1"
        # and flow 11 of "a" are both "a11" -- a seed-dependent duplicate
        # flow_id, or a flow that hybridize files under the wrong class
        FlowClassSpec("a", 1.0, "tcp", FIXED)
        with pytest.raises(ValueError, match="'a1'.*end in a digit"):
            FlowClassSpec("a1", 1.0, "tcp", FIXED)


class TestPopulationSpec:
    def _spec(self, **kw):
        defaults = dict(
            name="pop",
            arrival=POISSON,
            classes=(MOUSE,),
            endpoints=ENDPOINTS,
            n_flows=10,
            horizon=5.0,
        )
        defaults.update(kw)
        return PopulationSpec(**defaults)

    def test_valid_spec_roundtrips(self):
        spec = self._spec()
        assert spec.rng_stream == "traffic"
        assert spec.start == 0.0

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate class name"):
            self._spec(classes=(MOUSE, FlowClassSpec("mouse", 2.0, "tcp", FIXED)))

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError, match="at least one flow class"):
            self._spec(classes=())

    def test_empty_endpoints_rejected(self):
        with pytest.raises(ValueError, match="at least one endpoint"):
            self._spec(endpoints=())

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_flows_rejected(self, n):
        with pytest.raises(ValueError, match="n_flows"):
            self._spec(n_flows=n)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            self._spec(horizon=0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            self._spec(start=-1.0)
