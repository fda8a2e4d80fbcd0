"""Unit tests for token buckets and srTCM/trTCM meters."""

import pytest

from repro.qos.marking import ProfileMarker
from repro.qos.meters import SrTcmMeter, TokenBucket, TrTcmMeter
from repro.sim.packet import Color, Packet


class TestTokenBucket:
    def test_starts_full(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=500)
        assert tb.peek(0.0) == 500

    def test_consume_and_refill(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=1000)  # 1000 B/s fill
        assert tb.try_consume(1000, 0.0)
        assert not tb.try_consume(1, 0.0)
        assert tb.try_consume(500, 0.5)  # refilled 500 B after 0.5 s
        assert not tb.try_consume(1, 0.5)

    def test_never_exceeds_burst(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=100)
        assert tb.peek(1000.0) == 100

    def test_clock_does_not_go_backwards(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=1000)
        tb.try_consume(1000, 1.0)
        before = tb.peek(1.0)
        assert tb.peek(0.5) == before  # stale timestamp ignored

    def test_validates_args(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=-1, burst_bytes=100)
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=100, burst_bytes=0)


class TestSrTcm:
    def test_green_within_committed_burst(self):
        m = SrTcmMeter(cir_bps=8000, cbs_bytes=3000, ebs_bytes=1000)
        assert m.color_of(1000, 0.0) is Color.GREEN
        assert m.color_of(1000, 0.0) is Color.GREEN
        assert m.color_of(1000, 0.0) is Color.GREEN

    def test_yellow_from_excess_bucket(self):
        m = SrTcmMeter(cir_bps=8000, cbs_bytes=1000, ebs_bytes=1000)
        assert m.color_of(1000, 0.0) is Color.GREEN
        assert m.color_of(1000, 0.0) is Color.YELLOW
        assert m.color_of(1000, 0.0) is Color.RED

    def test_red_without_excess(self):
        m = SrTcmMeter(cir_bps=8000, cbs_bytes=1000, ebs_bytes=0)
        assert m.color_of(1000, 0.0) is Color.GREEN
        assert m.color_of(1000, 0.0) is Color.RED

    def test_steady_rate_at_cir_stays_green(self):
        cir = 8000.0  # 1000 bytes/s
        m = SrTcmMeter(cir_bps=cir, cbs_bytes=2000)
        colors = [m.color_of(1000, t * 1.0) for t in range(1, 20)]
        assert all(c is Color.GREEN for c in colors)

    def test_rate_above_cir_goes_out_of_profile(self):
        m = SrTcmMeter(cir_bps=8000, cbs_bytes=2000)
        colors = [m.color_of(1000, t * 0.25) for t in range(1, 40)]
        assert Color.RED in colors
        green_share = sum(1 for c in colors if c is Color.GREEN) / len(colors)
        assert 0.1 < green_share < 0.5  # ~1000 of 4000 B/s in profile

    def test_counts(self):
        m = SrTcmMeter(cir_bps=8000, cbs_bytes=1000)
        m.color_of(1000, 0.0)
        m.color_of(1000, 0.0)
        assert m.counts[Color.GREEN] == 1
        assert m.counts[Color.RED] == 1

    def test_validates_args(self):
        with pytest.raises(ValueError):
            SrTcmMeter(cir_bps=0, cbs_bytes=100)


class TestTrTcm:
    def test_green_within_both_rates(self):
        m = TrTcmMeter(cir_bps=8000, cbs_bytes=2000, pir_bps=16000, pbs_bytes=2000)
        assert m.color_of(1000, 0.0) is Color.GREEN

    def test_yellow_between_cir_and_pir(self):
        m = TrTcmMeter(cir_bps=8000, cbs_bytes=1000, pir_bps=80000, pbs_bytes=4000)
        assert m.color_of(1000, 0.0) is Color.GREEN
        assert m.color_of(1000, 0.0) is Color.YELLOW

    def test_red_above_peak(self):
        m = TrTcmMeter(cir_bps=8000, cbs_bytes=1000, pir_bps=16000, pbs_bytes=1000)
        assert m.color_of(1000, 0.0) is Color.GREEN
        assert m.color_of(1000, 0.0) is Color.RED  # peak bucket empty

    def test_peak_must_cover_committed(self):
        with pytest.raises(ValueError):
            TrTcmMeter(cir_bps=16000, cbs_bytes=1000, pir_bps=8000, pbs_bytes=1000)


def test_marker_and_meter_counts_read_per_color():
    meter = TrTcmMeter(cir_bps=8000, cbs_bytes=1000, pir_bps=80000, pbs_bytes=2000)
    marker = ProfileMarker(meter, flow_id="af")
    for flow in ("af", "af", "af", "be"):
        marker.mark(Packet(src="a", dst="b", flow_id=flow, size=1000), 0.0)
    assert meter.counts == {Color.GREEN: 1, Color.YELLOW: 1, Color.RED: 1}
    assert marker.marked == {Color.GREEN: 1, Color.YELLOW: 1, Color.RED: 2}
    assert marker.green_fraction() == 0.25
