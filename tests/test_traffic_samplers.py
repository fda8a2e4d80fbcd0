"""Property tests for the traffic samplers (bounds, means, clamping)."""

import random

from hypothesis import given, settings, strategies as st

from repro.traffic import ArrivalSpec, SizeSpec
from repro.traffic.samplers import iter_arrivals, size_sampler


class TestArrivalProperties:
    @given(
        rate=st.floats(min_value=0.5, max_value=200.0),
        horizon=st.floats(min_value=0.5, max_value=20.0),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_poisson_bounds_and_order(self, rate, horizon, seed):
        spec = ArrivalSpec(kind="poisson", rate_per_s=rate)
        times = list(iter_arrivals(spec, random.Random(seed), horizon, 500))
        assert len(times) <= 500
        assert all(0.0 < t < horizon for t in times)
        assert times == sorted(times)

    @given(seed=st.integers(min_value=0, max_value=999))
    def test_onoff_bounds_and_order(self, seed):
        spec = ArrivalSpec(
            kind="onoff", rate_per_s=20.0, mean_on=0.5, mean_off=0.5
        )
        times = list(iter_arrivals(spec, random.Random(seed), 10.0, 200))
        assert len(times) <= 200
        assert all(0.0 < t < 10.0 for t in times)
        assert times == sorted(times)

    @given(seed=st.integers(min_value=0, max_value=999))
    def test_flash_crowd_bounds_and_order(self, seed):
        spec = ArrivalSpec(
            kind="flash_crowd",
            base_rate_per_s=2.0,
            peak_rate_per_s=50.0,
            ramp_start=2.0,
            ramp_duration=2.0,
        )
        times = list(iter_arrivals(spec, random.Random(seed), 8.0, 500))
        assert all(0.0 < t < 8.0 for t in times)
        assert times == sorted(times)

    def test_poisson_empirical_rate_near_nominal(self):
        # fixed seed, long horizon: the empirical rate should sit within
        # a loose tolerance of the nominal one (law of large numbers)
        spec = ArrivalSpec(kind="poisson", rate_per_s=50.0)
        times = list(iter_arrivals(spec, random.Random(7), 200.0, 100_000))
        empirical = len(times) / 200.0
        assert 45.0 < empirical < 55.0

    def test_flash_crowd_ramps_up(self):
        # arrivals after the ramp should be much denser than before it
        spec = ArrivalSpec(
            kind="flash_crowd",
            base_rate_per_s=1.0,
            peak_rate_per_s=100.0,
            ramp_start=10.0,
            ramp_duration=1.0,
        )
        times = list(iter_arrivals(spec, random.Random(3), 20.0, 100_000))
        before = sum(1 for t in times if t < 10.0)
        after = sum(1 for t in times if t >= 11.0)
        assert after > 5 * before

    def test_n_max_caps_the_population(self):
        spec = ArrivalSpec(kind="poisson", rate_per_s=1000.0)
        times = list(iter_arrivals(spec, random.Random(0), 100.0, 17))
        assert len(times) == 17


class TestSizeProperties:
    @given(
        alpha=st.floats(min_value=0.5, max_value=3.0),
        min_bytes=st.integers(min_value=1, max_value=10_000),
        span=st.integers(min_value=0, max_value=1_000_000),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_pareto_within_truncation_bounds(self, alpha, min_bytes, span, seed):
        spec = SizeSpec(
            kind="pareto",
            alpha=alpha,
            min_bytes=min_bytes,
            max_bytes=min_bytes + span,
        )
        draw = size_sampler(spec, random.Random(seed))
        for _ in range(50):
            size = draw()
            assert isinstance(size, int)
            assert min_bytes <= size <= min_bytes + span

    @given(
        mean=st.floats(min_value=10.0, max_value=1e6),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_exponential_floor(self, mean, seed):
        spec = SizeSpec(kind="exponential", mean_bytes=mean, min_bytes=100)
        draw = size_sampler(spec, random.Random(seed))
        for _ in range(50):
            assert draw() >= 100

    def test_fixed_is_constant(self):
        spec = SizeSpec(kind="fixed", size_bytes=1234)
        draw = size_sampler(spec, random.Random(0))
        assert [draw() for _ in range(5)] == [1234] * 5

    def test_pareto_degenerate_truncation_clamps(self):
        # max_bytes == min_bytes: every sample collapses to the scale
        spec = SizeSpec(kind="pareto", alpha=1.1, min_bytes=500, max_bytes=500)
        draw = size_sampler(spec, random.Random(1))
        assert all(draw() == 500 for _ in range(20))

    def test_exponential_empirical_mean_near_nominal(self):
        spec = SizeSpec(kind="exponential", mean_bytes=50_000.0)
        draw = size_sampler(spec, random.Random(11))
        n = 20_000
        mean = sum(draw() for _ in range(n)) / n
        assert 48_000 < mean < 52_000

    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=999))
    def test_pareto_untruncated_mean_matches_theory(self, seed):
        # alpha=2, scale m: E[X] = alpha*m/(alpha-1) = 2m.  A huge
        # max_bytes makes truncation negligible; check a loose band.
        spec = SizeSpec(
            kind="pareto", alpha=2.0, min_bytes=1000, max_bytes=10**9
        )
        draw = size_sampler(spec, random.Random(seed))
        n = 5000
        mean = sum(draw() for _ in range(n)) / n
        assert 1600 < mean < 2600
