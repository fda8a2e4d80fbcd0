"""The SACK scoreboard against its scan-and-sort reference model.

``ModelScoreboard`` is the O(window)-per-call formulation the
scoreboard had before it kept counters and an ordered window: every
query scans ``_outstanding``, every report sorts it.  It is obviously
right and obviously slow; ``repro.sack.scoreboard.SenderScoreboard``
must be indistinguishable from it through every public call, after
every step of any operation sequence.
"""

import bisect
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.sack.scoreboard import SenderScoreboard


class ModelScoreboard:
    """Reference scoreboard: no order kept, nothing counted."""

    def __init__(self, dupack_threshold=3):
        self.dupack_threshold = dupack_threshold
        self._outstanding = {}
        self.cum_ack = -1
        self.high_sacked = -1
        self.total_sent = self.total_acked = 0
        self.total_lost = self.total_retx = 0

    def on_send(self, seq, size, now, app=None):
        self._outstanding[seq] = SimpleNamespace(
            seq=seq, size=size, send_time=now, first_send_time=now, app=app,
            retx_count=0, sacked=False, lost=False, retx_pending=False,
            retx_guard=-1,
        )
        self.total_sent += 1

    def on_retransmit(self, seq, now, highest_sent=None):
        record = self._outstanding.get(seq)
        if record is None:
            return None
        record.retx_count += 1
        record.send_time = now
        record.lost = False
        record.retx_pending = False
        if highest_sent is None:
            highest_sent = max(self._outstanding)
        record.retx_guard = highest_sent
        self.total_retx += 1
        return record

    def abandon(self, seq):
        return self._outstanding.pop(seq, None)

    def on_feedback(self, cum_ack, blocks, now):
        newly_acked = []
        if cum_ack > self.cum_ack:
            self.cum_ack = cum_ack
        for seq in sorted(self._outstanding):
            if seq > self.cum_ack:
                break
            record = self._outstanding.pop(seq)
            if not record.sacked:
                newly_acked.append(record)
                self.total_acked += 1
        for start, end in blocks:
            if end > self.high_sacked:
                self.high_sacked = end - 1
            for seq in sorted(self._outstanding):  # not range(): may be huge
                record = self._outstanding[seq]
                if start <= seq < end and not record.sacked:
                    record.sacked = True
                    newly_acked.append(record)
                    self.total_acked += 1
        return newly_acked, self._detect_losses()

    def _detect_losses(self):
        newly_lost = []
        sacked_seqs = sorted(
            seq for seq, rec in self._outstanding.items() if rec.sacked
        )
        for seq in sorted(self._outstanding):
            record = self._outstanding[seq]
            if record.sacked or record.lost or record.retx_pending:
                continue
            floor = seq if record.retx_count == 0 else record.retx_guard
            above = len(sacked_seqs) - bisect.bisect_right(sacked_seqs, floor)
            if seq > self.cum_ack and above >= self.dupack_threshold:
                record.lost = True
                record.retx_pending = True
                newly_lost.append(record)
                self.total_lost += 1
        return newly_lost

    def mark_outstanding_lost(self):
        marked = 0
        for record in self._outstanding.values():
            if not record.sacked and not record.lost:
                record.lost = True
                record.retx_pending = False
                marked += 1
        return marked

    def pipe(self):
        return sum(
            1 for r in self._outstanding.values() if not r.sacked and not r.lost
        )

    def retransmission_candidates(self):
        return sorted(
            (r for r in self._outstanding.values() if r.retx_pending),
            key=lambda r: r.seq,
        )

    def forward_point(self, default):
        awaited = [s for s, r in self._outstanding.items() if not r.sacked]
        return min(awaited) if awaited else default

    def prune_delivered(self, floor):
        stale = [
            s for s, r in self._outstanding.items() if r.sacked and s < floor
        ]
        for seq in stale:
            del self._outstanding[seq]
        return len(stale)

    @property
    def in_flight(self):
        return sum(1 for r in self._outstanding.values() if not r.sacked)

    @property
    def outstanding(self):
        return len(self._outstanding)

    def oldest_unacked(self):
        if not self._outstanding:
            return None
        return self._outstanding[min(self._outstanding)]


# ----------------------------------------------------------------------
# operation sequences.  Sequence numbers are offsets from the first
# unacknowledged one, so the window stays populated and re-registering a
# tracked or SACKed number, out-of-order registration, stale cumulative
# acks and overlapping / empty / inverted / beyond-window blocks all
# happen often (absolute draws would cumulatively ack everything at once)
# ----------------------------------------------------------------------
OFFSET = st.integers(min_value=-2, max_value=14)
block = st.tuples(
    OFFSET,
    st.integers(min_value=-1, max_value=6) | st.just(1 << 40),  # length
)
operation = st.one_of(
    st.tuples(st.just("send_next"), st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("send"), OFFSET),
    st.tuples(
        st.just("feedback"),
        st.integers(min_value=-3, max_value=3),  # cum_ack moves by this
        st.lists(block, max_size=3),
    ),
    st.tuples(st.just("retransmit"), OFFSET, st.none() | OFFSET),
    st.tuples(st.just("abandon"), OFFSET),
    st.tuples(st.just("mark_lost")),
    st.tuples(st.just("prune"), OFFSET),
)


def seqs(records):
    return [record.seq for record in records]


def state_of(record):
    return (
        record.seq, record.size, record.sacked, record.lost, record.retx_pending,
        record.retx_count, record.retx_guard, record.send_time,
        record.first_send_time,
    )


def assert_same(sb, model):
    assert list(sb._outstanding) == sorted(model._outstanding)
    for seq, record in sb._outstanding.items():
        assert state_of(record) == state_of(model._outstanding[seq])
    for name in ("cum_ack", "high_sacked", "total_sent", "total_acked",
                 "total_lost", "total_retx", "in_flight", "outstanding"):
        assert getattr(sb, name) == getattr(model, name), name
    assert sb.pipe() == model.pipe()
    candidates = seqs(model.retransmission_candidates())
    assert seqs(sb.retransmission_candidates()) == candidates
    # the one counter no public read exposes: too high would only cost
    # a scan, so only a direct look keeps it honest
    assert sb._retx_pending == len(candidates)
    assert sb.forward_point(99) == model.forward_point(99)
    oldest, expected = sb.oldest_unacked(), model.oldest_unacked()
    assert (oldest and oldest.seq) == (expected and expected.seq)


class Pair:
    """The scoreboard and the model, driven in lock step."""

    def __init__(self, dupack_threshold):
        self.sb = SenderScoreboard(dupack_threshold)
        self.model = ModelScoreboard(dupack_threshold)
        self.next_seq = 0  # what a monotone sender would send next

    def send(self, seq, now):
        self.sb.on_send(seq, 1000 + seq, now)
        self.model.on_send(seq, 1000 + seq, now)
        self.next_seq = max(self.next_seq, seq + 1)

    def apply(self, op, now):
        sb, model, kind = self.sb, self.model, op[0]
        base = max(model.cum_ack + 1, 0)  # offsets count from here
        if kind == "send_next":
            for seq in range(self.next_seq, self.next_seq + op[1]):
                self.send(seq, now)
        elif kind == "send":
            self.send(max(base + op[1], 0), now)
        elif kind == "feedback":
            cum_ack = model.cum_ack + op[1]
            blocks = [
                (base + offset, base + offset + length) for offset, length in op[2]
            ]
            digest = sb.on_feedback(cum_ack, blocks, now)
            acked, lost = model.on_feedback(cum_ack, blocks, now)
            assert seqs(digest.newly_acked) == seqs(acked)  # same order too
            assert seqs(digest.newly_lost) == seqs(lost)
            assert digest.cum_ack == model.cum_ack
        elif kind == "retransmit":
            highest_sent = None if op[2] is None else base + op[2]
            got = sb.on_retransmit(base + op[1], now, highest_sent)
            expected = model.on_retransmit(base + op[1], now, highest_sent)
            assert (got is None) == (expected is None)
        elif kind == "abandon":
            got, expected = sb.abandon(base + op[1]), model.abandon(base + op[1])
            assert (got and got.seq) == (expected and expected.seq)
        elif kind == "mark_lost":
            assert sb.mark_outstanding_lost() == model.mark_outstanding_lost()
        elif kind == "prune":
            floor = base + op[1]
            assert sb.prune_delivered(floor) == model.prune_delivered(floor)
        assert_same(sb, model)


class TestAgainstReferenceModel:
    @given(st.lists(operation, max_size=40), st.integers(min_value=1, max_value=4))
    @settings(max_examples=600, deadline=None)
    def test_every_step_matches_the_model(self, ops, dupack_threshold):
        pair = Pair(dupack_threshold)
        pair.apply(("send_next", 8), now=0.0)  # start with a window to lose from
        for step, op in enumerate(ops, start=1):
            pair.apply(op, now=0.5 * step)
