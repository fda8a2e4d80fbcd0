"""Tests for application traffic sources and the playout buffer."""

import pytest

from repro.apps.playout import PlayoutBuffer
from repro.apps.sources import CbrSource, MediaSource, OnOffSource, PoissonSource
from repro.core.instances import TFRC_MEDIA, build_transport_pair
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.sim.packet import AppDataHeader, Packet
from repro.topo import ScenarioSpec, build, chain_spec


def media_pair(sim, rate=5e6):
    net = build(sim, ScenarioSpec("t", chain_spec(1, rate_bps=rate, delay=0.01))).net
    rec = FlowRecorder()
    snd, rcv = build_transport_pair(
        sim, net.node("h0"), net.node("h1"), "f", TFRC_MEDIA,
        recorder=rec, bulk=False, start=True,
    )
    return snd, rcv, rec


class TestCbr:
    def test_rate_matches_nominal(self):
        sim = Simulator(seed=1)
        snd, rcv, rec = media_pair(sim)
        src = CbrSource(sim, snd, rate_bps=800_000)
        src.start()
        sim.run(until=20)
        assert rec.mean_rate_bps(5, 20) == pytest.approx(800_000, rel=0.1)

    def test_stop_stops_generation(self):
        sim = Simulator(seed=1)
        snd, rcv, rec = media_pair(sim)
        src = CbrSource(sim, snd, rate_bps=800_000)
        src.start()
        sim.run(until=5)
        src.stop()
        count = src.messages
        sim.run(until=10)
        assert src.messages == count

    def test_deadline_attached(self):
        sim = Simulator(seed=1)
        snd, rcv, rec = media_pair(sim)
        src = CbrSource(sim, snd, rate_bps=100_000, lifetime=0.25)
        src.start()
        sim.run(until=1)
        # inspect a queued/sent message via the scoreboard-free app queue
        assert src.messages > 0

    def test_validates_rate(self):
        sim = Simulator(seed=1)
        snd, _, _ = media_pair(sim)
        with pytest.raises(ValueError):
            CbrSource(sim, snd, rate_bps=0)


class TestPoissonAndOnOff:
    def test_poisson_mean_rate(self):
        sim = Simulator(seed=2)
        snd, rcv, rec = media_pair(sim)
        src = PoissonSource(sim, snd, rate_bps=500_000)
        src.start()
        sim.run(until=30)
        assert rec.mean_rate_bps(5, 30) == pytest.approx(500_000, rel=0.2)

    def test_onoff_produces_bursts_and_silences(self):
        sim = Simulator(seed=3)
        snd, rcv, rec = media_pair(sim)
        src = OnOffSource(sim, snd, rate_bps=1e6, mean_on=0.5, mean_off=0.5)
        src.start()
        sim.run(until=30)
        series = rec.series(0.2, end=30)
        idle_bins = sum(1 for v in series if v == 0)
        busy_bins = sum(1 for v in series if v > 0)
        assert idle_bins > 5 and busy_bins > 5

    def test_onoff_long_run_rate_half_of_peak(self):
        sim = Simulator(seed=4)
        snd, rcv, rec = media_pair(sim)
        src = OnOffSource(sim, snd, rate_bps=1e6, mean_on=1.0, mean_off=1.0)
        src.start()
        sim.run(until=60)
        assert rec.mean_rate_bps(5, 60) == pytest.approx(5e5, rel=0.35)


class TestMediaSource:
    def test_gop_structure(self):
        sim = Simulator(seed=1)
        snd, rcv, rec = media_pair(sim)
        src = MediaSource(sim, snd, fps=25)
        src.start()
        sim.run(until=2.0)
        assert src.frames == pytest.approx(2.0 * 25, abs=2)

    def test_frames_fragmented_by_segment_size(self):
        sim = Simulator(seed=1)
        snd, rcv, rec = media_pair(sim)
        src = MediaSource(sim, snd, fps=25, i_size=6000, p_size=3000, b_size=1500)
        src.start()
        sim.run(until=1.0)
        # I frames at 6000 B -> 6 segments of 1000 B each
        assert src.messages > src.frames

    def test_mean_rate_formula(self):
        sim = Simulator(seed=1)
        snd, _, _ = media_pair(sim)
        src = MediaSource(sim, snd, fps=25, i_size=6000, p_size=3000, b_size=1500)
        gop_bytes = 6000 + 3 * 3000 + 8 * 1500
        assert src.mean_rate_bps() == pytest.approx(gop_bytes * 8 * 25 / 12)

    def test_delivered_rate_matches_source_rate(self):
        sim = Simulator(seed=1)
        snd, rcv, rec = media_pair(sim, rate=10e6)
        src = MediaSource(sim, snd, fps=25)
        src.start()
        sim.run(until=20)
        assert rec.mean_rate_bps(5, 20) == pytest.approx(
            src.mean_rate_bps(), rel=0.15
        )


class TestPlayoutBuffer:
    def pkt(self, deadline, frame="P"):
        return Packet(
            src="a", dst="b", flow_id="f", size=100,
            app=AppDataHeader(app_seq=0, frame_type=frame, deadline=deadline),
        )

    def test_on_time_and_late(self):
        buf = PlayoutBuffer()
        assert buf.deliver(self.pkt(deadline=1.0), now=0.5)
        assert not buf.deliver(self.pkt(deadline=1.0), now=1.5)
        assert buf.on_time == 1 and buf.late == 1
        assert buf.on_time_ratio() == 0.5

    def test_no_deadline_counted_separately(self):
        buf = PlayoutBuffer()
        packet = Packet(src="a", dst="b", flow_id="f", size=100)
        assert buf.deliver(packet, now=100.0)
        assert buf.no_deadline == 1
        assert buf.on_time_ratio() == 1.0  # vacuous

    def test_per_frame_type_accounting(self):
        buf = PlayoutBuffer()
        buf.deliver(self.pkt(1.0, frame="I"), now=0.5)
        buf.deliver(self.pkt(1.0, frame="I"), now=2.0)
        buf.deliver(self.pkt(1.0, frame="B"), now=0.1)
        assert buf.by_frame_type["I"] == {"on_time": 1, "late": 1}
        assert buf.by_frame_type["B"]["on_time"] == 1
