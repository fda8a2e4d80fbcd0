"""Unit tests for the sender-side SACK scoreboard."""

from repro.sack.scoreboard import SenderScoreboard


def send_n(sb, n, start=0, t=0.0):
    for seq in range(start, start + n):
        sb.on_send(seq, 1000, t + seq * 0.01)


class TestAcking:
    def test_cum_ack_pops_records(self):
        sb = SenderScoreboard()
        send_n(sb, 5)
        digest = sb.on_feedback(2, (), 1.0)
        assert [r.seq for r in digest.newly_acked] == [0, 1, 2]
        assert sb.outstanding == 2

    def test_sack_blocks_mark_records(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        digest = sb.on_feedback(0, ((3, 5),), 1.0)
        acked = {r.seq for r in digest.newly_acked}
        assert acked == {0, 3, 4}
        assert sb.record_for(3).sacked

    def test_sacked_then_cum_acked_not_double_counted(self):
        sb = SenderScoreboard()
        send_n(sb, 4)
        sb.on_feedback(0, ((2, 3),), 1.0)
        digest = sb.on_feedback(3, (), 2.0)
        assert {r.seq for r in digest.newly_acked} == {1, 3}
        assert sb.total_acked == 4

    def test_stale_report_harmless(self):
        sb = SenderScoreboard()
        send_n(sb, 5)
        sb.on_feedback(3, (), 1.0)
        digest = sb.on_feedback(1, (), 2.0)  # reordered older report
        assert digest.newly_acked == []
        assert sb.cum_ack == 3


class TestLossDetection:
    def test_hole_with_three_sacked_above_is_lost(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        digest = sb.on_feedback(0, ((2, 5),), 1.0)
        assert [r.seq for r in digest.newly_lost] == [1]
        assert sb.record_for(1).retx_pending

    def test_hole_with_two_sacked_above_not_yet_lost(self):
        sb = SenderScoreboard()
        send_n(sb, 5)
        digest = sb.on_feedback(0, ((2, 4),), 1.0)
        assert digest.newly_lost == []

    def test_loss_detected_incrementally(self):
        sb = SenderScoreboard()
        send_n(sb, 8)
        assert sb.on_feedback(0, ((2, 4),), 1.0).newly_lost == []
        digest = sb.on_feedback(0, ((2, 5),), 2.0)
        assert [r.seq for r in digest.newly_lost] == [1]

    def test_retransmission_needs_fresh_evidence(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        sb.on_feedback(0, ((2, 5),), 1.0)  # seq 1 lost
        sb.on_retransmit(1, 1.1, highest_sent=5)
        # same old evidence: not lost again
        digest = sb.on_feedback(0, ((2, 5),), 1.2)
        assert digest.newly_lost == []
        # new packets sent and SACKed above the guard: lost again
        # (5 becomes a fresh hole with 6..8 SACKed above it, so it is
        # detected alongside the re-detected retransmission of 1)
        send_n(sb, 3, start=6)
        digest = sb.on_feedback(0, ((2, 5), (6, 9)), 1.5)
        assert {r.seq for r in digest.newly_lost} == {1, 5}

    def test_multiple_holes(self):
        sb = SenderScoreboard()
        send_n(sb, 10)
        digest = sb.on_feedback(0, ((2, 3), (4, 5), (6, 10)), 1.0)
        assert {r.seq for r in digest.newly_lost} == {1, 3, 5}


class TestRetransmissionBookkeeping:
    def test_candidates_in_sequence_order(self):
        sb = SenderScoreboard()
        send_n(sb, 10)
        sb.on_feedback(0, ((2, 3), (4, 10)), 1.0)
        assert [r.seq for r in sb.retransmission_candidates()] == [1, 3]

    def test_retransmit_updates_record(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        sb.on_feedback(0, ((2, 5),), 1.0)
        rec = sb.on_retransmit(1, 9.0, highest_sent=5)
        assert rec.retx_count == 1
        assert rec.send_time == 9.0
        assert rec.first_send_time < 9.0
        assert not rec.retx_pending

    def test_abandon_removes_tracking(self):
        sb = SenderScoreboard()
        send_n(sb, 3)
        assert sb.abandon(1) is not None
        assert sb.abandon(1) is None
        assert sb.outstanding == 2

    def test_pipe_counts_unsacked_unlost(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        assert sb.pipe() == 6
        sb.on_feedback(0, ((2, 5),), 1.0)  # 1 lost, 2-4 sacked, 5 in flight
        assert sb.pipe() == 1
        sb.on_retransmit(1, 2.0, highest_sent=5)
        assert sb.pipe() == 2

    def test_mark_outstanding_lost(self):
        sb = SenderScoreboard()
        send_n(sb, 5)
        sb.on_feedback(0, ((3, 4),), 1.0)
        marked = sb.mark_outstanding_lost()
        assert marked == 3  # seqs 1, 2, 4 (3 was sacked; 0 cum-acked)
        assert sb.pipe() == 0


class TestForwardPoint:
    def test_forward_point_is_first_awaited(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        sb.on_feedback(1, ((4, 6),), 1.0)
        assert sb.forward_point(default=6) == 2

    def test_forward_point_default_when_all_delivered(self):
        sb = SenderScoreboard()
        send_n(sb, 3)
        sb.on_feedback(2, (), 1.0)
        assert sb.forward_point(default=3) == 3

    def test_abandoned_holes_move_forward_point(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        sb.on_feedback(0, ((2, 6),), 1.0)  # 1 lost
        sb.abandon(1)
        assert sb.forward_point(default=6) == 6

    def test_prune_delivered(self):
        sb = SenderScoreboard()
        send_n(sb, 6)
        sb.on_feedback(0, ((2, 6),), 1.0)
        sb.abandon(1)
        pruned = sb.prune_delivered(sb.forward_point(default=6))
        assert pruned == 4  # sacked 2..5 removed
        assert sb.outstanding == 0


class TestFabricatedBlocks:
    """A lying receiver picks the block bounds; the sender pays only
    for the packets it actually has outstanding."""

    @staticmethod
    def after_report(blocks):
        sb = SenderScoreboard()
        send_n(sb, 10)
        digest = sb.on_feedback(0, blocks, 1.0)
        return sb, digest

    def test_huge_block_costs_the_window_and_sacks_only_what_exists(self):
        tight_sb, tight = self.after_report(((4, 10),))
        huge_sb, huge = self.after_report(((4, 1 << 40),))  # must return at all
        assert [r.seq for r in huge.newly_acked] == [0, 4, 5, 6, 7, 8, 9]
        assert [r.seq for r in huge.newly_acked] == [r.seq for r in tight.newly_acked]
        # same dup-SACK verdict as the honest block: 1..3 have 6 SACKed above
        assert [r.seq for r in huge.newly_lost] == [1, 2, 3]
        assert [r.seq for r in huge.newly_lost] == [r.seq for r in tight.newly_lost]
        assert huge_sb.high_sacked == (1 << 40) - 1  # follows the report
        assert (huge_sb.pipe(), huge_sb.in_flight) == (tight_sb.pipe(), tight_sb.in_flight)

    def test_block_reaching_below_the_window_is_clamped_too(self):
        sb = SenderScoreboard()
        send_n(sb, 10, start=1_000_000_000)
        digest = sb.on_feedback(-1, ((0, 1_000_000_003),), 1.0)
        assert [r.seq for r in digest.newly_acked] == [
            1_000_000_000, 1_000_000_001, 1_000_000_002,
        ]

    def test_inverted_and_empty_blocks_sack_nothing(self):
        sb, digest = self.after_report(((5, 5), (8, 3), (1 << 40, 0)))
        assert [r.seq for r in digest.newly_acked] == [0]  # the cumulative ack
        assert digest.newly_lost == []
        assert sb.in_flight == sb.outstanding == 9


class TestCostFollowsThePacketNotTheWindow:
    """O(1) as a count: the frames a call executes do not depend on how
    many packets are outstanding (a scan shows as one generator or
    comprehension frame per record)."""

    CALLS = {
        "cumulative ack of one packet": lambda sb: sb.on_feedback(0, (), 1.0),
        "pipe": lambda sb: sb.pipe(),
        "in_flight": lambda sb: sb.in_flight,
        "retransmission_candidates, none pending":
            lambda sb: sb.retransmission_candidates(),
        "forward_point": lambda sb: sb.forward_point(10_000),
        "oldest_unacked": lambda sb: sb.oldest_unacked(),
        "prune_delivered, none SACKed": lambda sb: sb.prune_delivered(10_000),
    }

    def test_same_frames_at_8_and_at_512_outstanding(self, count_frames):
        for name, call in self.CALLS.items():
            counts = []
            for window in (8, 512):
                sb = SenderScoreboard()
                send_n(sb, window)
                counts.append(count_frames("/sack/scoreboard.py", lambda: call(sb)))
            assert counts[0] == counts[1] >= 1, (name, counts)
