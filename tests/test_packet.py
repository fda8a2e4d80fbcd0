"""Unit tests for the packet model."""

from repro.sim.packet import (
    AppDataHeader,
    Color,
    Packet,
    PacketKind,
    SackFeedbackHeader,
    TfrcDataHeader,
)


def make_packet(**kw):
    defaults = dict(src="a", dst="b", flow_id="f", size=1000)
    defaults.update(kw)
    return Packet(**defaults)


class TestPacket:
    def test_uids_are_unique(self):
        assert make_packet().uid != make_packet().uid

    def test_bits(self):
        assert make_packet(size=125).bits == 1000

    def test_reply_to_swaps_endpoints(self):
        assert make_packet().reply_to() == ("b", "a")

    def test_copy_overrides_and_fresh_uid(self):
        p = make_packet()
        q = p.copy(dst="c")
        assert q.dst == "c" and q.src == p.src
        assert q.uid != p.uid

    def test_default_color_is_best_effort(self):
        assert make_packet().color is Color.RED

    def test_default_kind_is_data(self):
        assert make_packet().kind is PacketKind.DATA


class TestHeaders:
    def test_tfrc_data_header_fields(self):
        h = TfrcDataHeader(seq=5, timestamp=1.0, rtt_estimate=0.1)
        assert h.seq == 5 and h.forward_ack == 0

    def test_sack_feedback_defaults(self):
        h = SackFeedbackHeader(
            cum_ack=3,
            blocks=((5, 7),),
            timestamp_echo=0.0,
            elapsed=0.0,
            recv_bytes=1000,
            last_seq=6,
        )
        assert h.p is None and h.x_recv is None and h.interval == 0.0

    def test_app_header_defaults(self):
        app = AppDataHeader()
        assert app.app_seq == -1 and app.deadline is None
