"""Property-based tests: equation, loss history, token buckets, delivery."""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.metrics.stats import jain_index, percentile
from repro.qos.meters import SrTcmMeter
from repro.reliability.delivery import DeliveryBuffer
from repro.sim.packet import Color, Packet
from repro.tfrc.equation import solve_loss_rate, tcp_throughput
from repro.tfrc.loss_history import LossEventEstimator, LossIntervalHistory


class TestEquationProperties:
    @given(
        s=st.integers(min_value=40, max_value=9000),
        rtt=st.floats(min_value=1e-3, max_value=5.0),
        p1=st.floats(min_value=1e-6, max_value=1.0),
        p2=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_monotone_decreasing_in_p(self, s, rtt, p1, p2):
        lo, hi = sorted((p1, p2))
        assume(hi - lo > 1e-9)
        assert tcp_throughput(s, rtt, lo) >= tcp_throughput(s, rtt, hi)

    @given(
        s=st.integers(min_value=40, max_value=9000),
        rtt=st.floats(min_value=1e-3, max_value=5.0),
        p=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_rate_always_positive_and_finite(self, s, rtt, p):
        rate = tcp_throughput(s, rtt, p)
        assert rate > 0
        assert math.isfinite(rate)

    @given(
        rtt=st.floats(min_value=1e-3, max_value=2.0),
        p=st.floats(min_value=1e-5, max_value=0.5),
    )
    def test_solve_inverts_throughput(self, rtt, p):
        rate = tcp_throughput(1000, rtt, p)
        recovered = solve_loss_rate(1000, rtt, rate)
        assert math.isclose(recovered, p, rel_tol=1e-3, abs_tol=1e-9)


class TestLossHistoryProperties:
    @given(st.lists(st.floats(min_value=1, max_value=1e5), min_size=1, max_size=40))
    def test_average_within_interval_range(self, intervals):
        h = LossIntervalHistory()
        for interval in intervals:
            h.record_event(interval)
        kept = intervals[-8:]
        assert min(kept) <= h.average_interval() <= max(kept) * 1.0001

    @given(st.lists(st.floats(min_value=1, max_value=1e5), min_size=1, max_size=40))
    def test_rate_in_unit_interval(self, intervals):
        h = LossIntervalHistory()
        for interval in intervals:
            h.record_event(interval)
        assert 0.0 < h.loss_event_rate() <= 1.0

    @given(
        st.lists(st.floats(min_value=1, max_value=1e4), min_size=1, max_size=20),
        st.floats(min_value=0, max_value=1e6),
    )
    def test_open_interval_never_raises_rate(self, intervals, open_len):
        h = LossIntervalHistory()
        for interval in intervals:
            h.record_event(interval)
        p_before = h.loss_event_rate()
        h.open_interval = open_len
        assert h.loss_event_rate() <= p_before + 1e-12

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=200))
    def test_estimator_never_crashes_and_p_bounded(self, seqs):
        est = LossEventEstimator()
        for i, seq in enumerate(seqs):
            est.on_packet(seq, i * 0.01, 0.05)
        assert 0.0 <= est.loss_event_rate() <= 1.0


class TestTokenBucketProperties:
    @given(
        rate=st.floats(min_value=8.0, max_value=1e9),
        burst=st.floats(min_value=100.0, max_value=1e6),
        sizes=st.lists(st.integers(min_value=1, max_value=2000), max_size=100),
    )
    def test_conservation(self, rate, burst, sizes):
        """Bytes metered in profile (green or yellow) never exceed both
        bursts + rate * elapsed."""
        meter = SrTcmMeter(cir_bps=rate, cbs_bytes=burst, ebs_bytes=burst)
        conforming = 0
        t = 0.0
        for i, size in enumerate(sizes):
            t = i * 0.01
            if meter.color_of(size, t) is not Color.RED:
                conforming += size
        assert conforming <= 2 * burst + rate / 8.0 * t + 1e-6

    @given(
        cir=st.floats(min_value=800.0, max_value=1e8),
        sizes=st.lists(st.integers(min_value=40, max_value=1500),
                       min_size=10, max_size=200),
    )
    def test_srtcm_green_bytes_bounded_by_cir(self, cir, sizes):
        meter = SrTcmMeter(cir_bps=cir, cbs_bytes=3000, ebs_bytes=3000)
        green = 0
        t = 0.0
        for i, size in enumerate(sizes):
            t = i * 0.01
            if meter.color_of(size, t) is Color.GREEN:
                green += size
        assert green <= 3000 + cir / 8.0 * t + 1500


class TestDeliveryBufferProperties:
    @given(
        st.permutations(list(range(30))),
        st.integers(min_value=0, max_value=29),
    )
    def test_all_packets_delivered_exactly_once_in_order(self, order, _):
        out = []
        buf = DeliveryBuffer(lambda p: out.append(p.uid - 1))
        for i, seq in enumerate(order):
            packet = Packet(src="a", dst="b", flow_id="f", size=1, uid=seq + 1)
            buf.push(seq, packet, now=i * 0.1)
        assert out == list(range(30))

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=100))
    def test_delivery_is_monotone_even_with_gaps(self, seqs):
        out = []
        buf = DeliveryBuffer(lambda p: out.append(p.uid - 1), gap_timeout=0.5)
        for i, seq in enumerate(seqs):
            packet = Packet(src="a", dst="b", flow_id="f", size=1, uid=seq + 1)
            buf.push(seq, packet, now=i * 0.2)
            buf.poll(i * 0.2)
        assert out == sorted(out)
        assert len(out) == len(set(out))


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
    def test_jain_bounds(self, values):
        idx = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= idx <= 1.0 + 1e-9

    @settings(max_examples=500)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_percentile_within_range(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)
