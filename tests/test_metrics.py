"""Unit tests for metrics: stats, recorder, cost meters."""

import ast
from pathlib import Path

import pytest

import repro
from repro.metrics.cost import CostMeter, NullMeter
from repro.metrics.recorder import FlowRecorder, warmup_bins
from repro.metrics.stats import (
    coefficient_of_variation,
    fold_sum,
    jain_index,
    mean,
    percentile,
    stddev,
    throughput_series,
)
from repro.sim.packet import Packet


def pkt(size=1000, created=0.0):
    return Packet(src="a", dst="b", flow_id="f", size=size, created_at=created)


class TestStats:
    def test_mean_and_stddev(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0
        assert stddev([5, 5, 5]) == 0
        assert stddev([2, 4]) == 1.0

    def test_cov(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([2, 4]) == pytest.approx(1 / 3)

    def test_jain_perfect_fairness(self):
        assert jain_index([10, 10, 10]) == pytest.approx(1.0)

    def test_jain_total_unfairness(self):
        assert jain_index([30, 0, 0]) == pytest.approx(1 / 3)

    def test_jain_requires_values(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile([7.0], 95) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_throughput_series(self):
        events = [(0.5, 100), (1.5, 200), (1.9, 100)]
        series = throughput_series(events, bin_width=1.0, end=3.0)
        assert series == [100.0, 300.0, 0.0]

    def test_percentile_interpolation_stays_within_range(self):
        # regression: hypothesis falsifying example — the interpolation
        # of two equal denormals landed 1 ULP below min(values)
        values = [7.135396919844353e-221] * 2
        result = percentile(values, 4.5)
        assert min(values) <= result <= max(values)
        assert result == values[0]

    def test_throughput_series_bin_edge_rounding(self):
        # regression: t just below end used to index bins[n_bins]
        # because t / bin_width rounds up (11.399999999999999 / 0.3
        # == 38.0 exactly in binary floating point)
        t = 11.399999999999999
        series = throughput_series([(t, 300)], bin_width=0.3, end=11.4)
        assert len(series) == 38
        assert series[-1] == pytest.approx(1000.0)
        assert sum(series) == pytest.approx(1000.0)

    def test_fold_sum_rounds_each_addition_in_order(self):
        # a left fold loses the 1.0 to rounding at 1e16 (ulp 2); the
        # compensated sum() of 3.12+ would return 1.0
        assert fold_sum([1e16, 1.0, -1e16]) == 0.0
        assert fold_sum([0.1] * 10) == 0.9999999999999999
        assert fold_sum(v for v in (0.5, 0.25)) == 0.75
        assert fold_sum([]) == 0
        total = fold_sum([1, 2, 3])
        assert total == 6 and isinstance(total, int)
        assert mean([1e16, 1.0, -1e16]) == 0.0


def _is_a_count(call: ast.Call) -> bool:
    """``sum(1 for ...)``: integers, exact on every Python."""
    (arg,) = call.args
    return (
        isinstance(arg, (ast.GeneratorExp, ast.ListComp))
        and isinstance(arg.elt, ast.Constant)
        and type(arg.elt.value) is int
    )


def test_float_reductions_go_through_fold_sum():
    # sum() of floats is compensated from 3.12 on, so a bare sum( gives
    # a metric, a golden or a spec-side total different last bits per
    # interpreter; obs/ is exempt, its sums are wall-clock times
    root = Path(repro.__file__).parent
    paths = [p for p in root.rglob("*.py") if p.relative_to(root).parts[0] != "obs"]
    bare = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and not _is_a_count(node)
            ):
                bare.append(f"{path.relative_to(root)}:{node.lineno}")
    assert bare == []


class TestFlowRecorder:
    def test_mean_rate_over_window(self):
        rec = FlowRecorder()
        rec.record(1.0, pkt(size=1000))
        rec.record(2.0, pkt(size=1000))
        rec.record(3.0, pkt(size=1000))
        # 2000 bytes in (1, 3]
        assert rec.mean_rate(start=1.0, end=3.0) == pytest.approx(1000.0)
        assert rec.mean_rate_bps(start=1.0, end=3.0) == pytest.approx(8000.0)

    def test_empty_recorder(self):
        rec = FlowRecorder()
        assert rec.mean_rate() == 0.0
        assert rec.series(1.0) == []

    def test_latencies(self):
        rec = FlowRecorder()
        rec.record(2.0, pkt(created=1.5))
        assert rec.latencies == [0.5]

    def test_series_binning(self):
        rec = FlowRecorder()
        rec.record(0.2, pkt(size=500))
        rec.record(1.7, pkt(size=1500))
        series = rec.series(1.0, end=2.0)
        assert series == [500.0, 1500.0]

    def test_series_validates_bin(self):
        rec = FlowRecorder()
        with pytest.raises(ValueError):
            rec.series(0.0)

    def test_series_rejects_degenerate_bins(self):
        rec = FlowRecorder()
        rec.record(1.0, pkt(size=100))
        with pytest.raises(ValueError):
            rec.series(-0.5)
        with pytest.raises(ValueError):
            rec.series(float("inf"))
        with pytest.raises(ValueError):
            rec.series(float("nan"))

    def test_series_bin_edges_survive_reciprocal_multiply(self):
        # series() buckets via one multiply by the precomputed
        # 1/bin_width; events sitting exactly on representable bucket
        # edges must land in the same bin as floor(t / bin_width).
        # 0.2 is the adversarial width: 0.6 * (1/0.2) rounds to 3.0
        # while 0.6 / 0.2 rounds below it.
        rec = FlowRecorder()
        for k in range(1, 8):
            rec.record(k * 0.1, pkt(size=100))
        series = rec.series(0.2, end=0.8)
        assert sum(series) * 0.2 == pytest.approx(700.0)
        for t, width in [(0.6, 0.2), (0.3, 0.1), (2.5, 0.5), (0.7, 0.07)]:
            one = FlowRecorder()
            one.record(t, pkt(size=100))
            series = one.series(width, end=t + width)
            assert sum(series) * width == pytest.approx(100.0)
            assert series[int(t / width)] > 0.0

    def test_series_bin_wider_than_trace(self):
        rec = FlowRecorder()
        rec.record(0.5, pkt(size=400))
        assert rec.series(10.0) == [40.0]

    def test_series_end_before_last_event_drops_tail(self):
        rec = FlowRecorder()
        rec.record(0.5, pkt(size=400))
        rec.record(5.0, pkt(size=400))
        assert rec.series(1.0, end=1.0) == [400.0]

    def test_aligned_warmup_skips_exactly_its_bins(self):
        # 0.6 / 0.2 == 2.9999999999999996: a plain floor kept the last
        # warm-up bin in the steady series for a third of the decimal
        # multiples of 0.05, 0.1 and 0.2
        for width in (0.05, 0.1, 0.2, 0.25, 0.5):
            for k in range(1, 1001):
                warmup = float(f"{k * width:.10g}")  # as a caller writes it
                assert warmup_bins(warmup, width) == k, (warmup, width)
        # a warm-up between two edges still floors
        assert warmup_bins(0.6000001, 0.2) == 3
        assert warmup_bins(0.5999, 0.2) == 2
        assert warmup_bins(0.0, 0.2) == 0

    def test_smoothness_series_length_is_monotone_in_warmup(self):
        from repro.harness.experiments.smoothness import smoothness_scenario

        for warmup in (0.6, 0.6000001):
            result = smoothness_scenario("tfrc", duration=2.0, warmup=warmup)
            assert len(result.series_bps) == 7, warmup

    def test_mean_rate_bisect_matches_scan(self):
        # the prefix-sum fast path must equal the definitional scan for
        # every (start, end] window, including edges on event times
        rec = FlowRecorder()
        times = [0.1, 0.5, 0.5, 1.0, 2.5, 2.5, 3.0]
        for i, t in enumerate(times):
            rec.record(t, pkt(size=100 * (i + 1)))
        for start in [0.0, 0.1, 0.5, 0.9, 2.5, 3.0, 4.0]:
            for end in [0.1, 0.5, 1.0, 2.5, 3.0, 5.0, None]:
                got = rec.mean_rate(start, end)
                e = end if end is not None else times[-1]
                span = e - start
                want = (
                    sum(s for t, s in rec.events if start < t <= e) / span
                    if span > 0
                    else 0.0
                )
                assert got == want, (start, end)

    def test_mean_rate_out_of_order_recording_falls_back(self):
        rec = FlowRecorder()
        rec.record(2.0, pkt(size=100))
        rec.record(1.0, pkt(size=700))  # hand-built, unordered
        assert rec.mean_rate(0.0, 2.0) == pytest.approx(800.0 / 2.0)
        assert rec.mean_rate(1.5, 2.0) == pytest.approx(100.0 / 0.5)

    def test_counters(self):
        rec = FlowRecorder()
        rec.record(0.0, pkt())
        rec.record_bytes(1.0, 300, latency=0.1)
        assert rec.delivered_packets == 2
        assert rec.delivered_bytes == 1300
        assert rec.first_time == 0.0 and rec.last_time == 1.0


class TestCostMeter:
    def test_charges_accumulate(self):
        m = CostMeter("x")
        m.charge(3)
        m.charge()
        assert m.ops == 4 and m.events == 2
        assert m.ops_per_event() == 2.0

    def test_memory_high_water_mark(self):
        m = CostMeter()
        m.alloc(100)
        m.alloc(50)
        m.free(120)
        assert m.resident_bytes == 30
        assert m.peak_bytes == 150

    def test_free_floors_at_zero(self):
        m = CostMeter()
        m.free(10)
        assert m.resident_bytes == 0

    def test_set_resident(self):
        m = CostMeter()
        m.set_resident(500)
        m.set_resident(200)
        assert m.resident_bytes == 200
        assert m.peak_bytes == 500

    def test_reset(self):
        m = CostMeter()
        m.charge(5)
        m.alloc(10)
        m.reset()
        assert m.ops == 0 and m.peak_bytes == 0

    def test_null_meter_ignores_everything(self):
        m = NullMeter()
        m.charge(100)
        m.alloc(100)
        m.set_resident(9)
        assert m.ops == 0 and m.resident_bytes == 0
