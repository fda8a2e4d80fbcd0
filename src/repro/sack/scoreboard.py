"""Sender-side SACK scoreboard.

Tracks every unacknowledged data packet, folds in feedback reports
(cumulative ack + SACK blocks) and derives:

* newly acknowledged packets (for reliability bookkeeping and RTT),
* newly *lost* packets via the dup-SACK rule — a packet is presumed
  lost once ``dupack_threshold`` (3) packets sent after it have been
  selectively acknowledged,
* retransmission candidates, filtered by the reliability policy.

The scoreboard is shared by the QTPAF/QTPlight sender and the SACK
variant of the TCP baseline.

Cost model: the work per call follows the packets the call is about,
not the window.  ``_outstanding`` iterates in ascending sequence order
(senders register monotonically, so that is plain insertion order) and
three counters — SACKed, in the pipe, awaiting retransmission — are
moved on every state transition.  A cumulative ack therefore walks only
the acknowledged prefix, loss detection runs only while a SACKed record
is outstanding (without one no hole can have evidence), and
``pipe()``/``in_flight`` are reads (RFC 6675 defines ``pipe`` as a
running count).  ``tests/test_scoreboard_model.py`` keeps the plain
scan-and-sort formulation as the reference both are checked against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.packet import AppDataHeader

#: SACKed-above count promoting a hole to a loss (mirrors TCP's dupthresh).
DUPSACK_THRESHOLD = 3


@dataclass(slots=True)
class SentRecord:
    """Book-keeping for one transmitted data packet.

    ``sacked``/``lost``/``retx_pending`` are written by the scoreboard
    only: its counters mirror them.
    """

    seq: int
    size: int
    send_time: float
    app: Optional[AppDataHeader] = None
    retx_count: int = 0
    sacked: bool = False
    lost: bool = False
    retx_pending: bool = False
    first_send_time: float = field(default=-1.0)
    #: after a retransmission, SACK coverage must reach this sequence
    #: number before the packet may be declared lost again (guards
    #: against re-judging a fresh retransmission on stale evidence)
    retx_guard: int = -1

    def __post_init__(self) -> None:
        if self.first_send_time < 0:
            self.first_send_time = self.send_time


@dataclass
class FeedbackDigest:
    """What one feedback report taught the scoreboard."""

    newly_acked: List[SentRecord]
    newly_lost: List[SentRecord]
    cum_ack: int


class SenderScoreboard:
    """Outstanding-packet state machine driven by SACK feedback."""

    def __init__(self, dupack_threshold: int = DUPSACK_THRESHOLD):
        if dupack_threshold < 1:
            raise ValueError("dupack threshold must be >= 1")
        self.dupack_threshold = dupack_threshold
        #: tracked records; iterates in ascending sequence order
        self._outstanding: Dict[int, SentRecord] = {}
        self._highest_seq = -1  # highest sequence number ever registered
        # how many tracked records are SACKed / neither SACKed nor lost /
        # awaiting retransmission
        self._sacked = 0
        self._pipe = 0
        self._retx_pending = 0
        self.cum_ack = -1
        self.high_sacked = -1
        self.total_sent = 0
        self.total_acked = 0
        self.total_lost = 0
        self.total_retx = 0

    # ------------------------------------------------------------------
    def on_send(
        self,
        seq: int,
        size: int,
        now: float,
        app: Optional[AppDataHeader] = None,
    ) -> SentRecord:
        """Register a (first) transmission.

        Registering a sequence number that is still tracked (go-back-N
        after an RTO) replaces its record with a fresh one.
        """
        record = SentRecord(seq=seq, size=size, send_time=now, app=app)
        outstanding = self._outstanding
        if seq > self._highest_seq:
            self._highest_seq = seq
            outstanding[seq] = record
        else:
            replaced = outstanding.get(seq)
            outstanding[seq] = record  # a tracked key keeps its position
            if replaced is not None:
                self._uncount(replaced)
            else:
                # below a sequence number registered earlier: restore
                # the ascending order every reader relies on
                self._outstanding = dict(sorted(outstanding.items()))
        self._pipe += 1
        self.total_sent += 1
        return record

    def on_retransmit(
        self, seq: int, now: float, highest_sent: Optional[int] = None
    ) -> Optional[SentRecord]:
        """Register a retransmission of an outstanding packet.

        ``highest_sent`` is the highest sequence number transmitted so
        far (the sender's ``next_seq - 1``); the packet will only be
        re-declared lost on SACK evidence *above* it, i.e. from packets
        sent after this retransmission (RFC 6675's rescue semantics).
        """
        record = self._outstanding.get(seq)
        if record is None:
            return None
        record.retx_count += 1
        record.send_time = now
        if record.lost:
            record.lost = False  # back in flight; a later report re-judges it
            if not record.sacked:
                self._pipe += 1
        if record.retx_pending:
            record.retx_pending = False
            self._retx_pending -= 1
        if highest_sent is None:
            highest_sent = next(reversed(self._outstanding))
        record.retx_guard = highest_sent
        self.total_retx += 1
        return record

    def abandon(self, seq: int) -> Optional[SentRecord]:
        """Drop a packet from tracking (partial-reliability give-up)."""
        record = self._outstanding.pop(seq, None)
        if record is not None:
            self._uncount(record)
        return record

    def _uncount(self, record: SentRecord) -> None:
        """Take a record that left ``_outstanding`` out of the counters."""
        if record.sacked:
            self._sacked -= 1
        elif not record.lost:
            self._pipe -= 1
        if record.retx_pending:
            self._retx_pending -= 1

    # ------------------------------------------------------------------
    def on_feedback(
        self,
        cum_ack: int,
        blocks: Sequence[Tuple[int, int]],
        now: float,
    ) -> FeedbackDigest:
        """Fold in one report; returns newly acked / newly lost records.

        ``blocks`` are half-open ``[start, end)`` ranges.  Reports are
        cumulative, so a stale (reordered) report is harmless: an older
        ``cum_ack`` simply acknowledges nothing new.  A block is walked
        only where records can exist — between the oldest tracked and
        the highest registered sequence number — so a fabricated range
        (``(0, 2**40)``) costs what the window costs.
        """
        newly_acked: List[SentRecord] = []
        if cum_ack > self.cum_ack:
            self.cum_ack = cum_ack
        cum_ack = self.cum_ack
        outstanding = self._outstanding
        covered: List[SentRecord] = []
        for seq, record in outstanding.items():
            if seq > cum_ack:
                break
            covered.append(record)
        for record in covered:
            del outstanding[record.seq]
            self._uncount(record)
            if not record.sacked:  # SACKed ones were counted when SACKed
                newly_acked.append(record)
                self.total_acked += 1
        if blocks:
            limit = self._highest_seq + 1
            first = next(iter(outstanding), limit)
            for start, end in blocks:
                if end > self.high_sacked:
                    self.high_sacked = end - 1
                for seq in range(max(start, first), min(end, limit)):
                    record = outstanding.get(seq)
                    if record is not None and not record.sacked:
                        record.sacked = True
                        self._sacked += 1
                        if not record.lost:
                            self._pipe -= 1
                        newly_acked.append(record)
                        self.total_acked += 1
        newly_lost = self._detect_losses() if self._sacked else []
        return FeedbackDigest(newly_acked, newly_lost, cum_ack)

    def _detect_losses(self) -> List[SentRecord]:
        """Dup-SACK rule: a hole with >= threshold SACKed packets above it.

        A retransmitted packet is only re-declared lost once SACK
        coverage has advanced past its ``retx_guard`` — i.e. on evidence
        that arrived *after* the retransmission.  Runs after the
        cumulative pop, so every record here is above ``cum_ack``.
        """
        newly_lost: List[SentRecord] = []
        outstanding = self._outstanding
        sacked_seqs = [seq for seq, rec in outstanding.items() if rec.sacked]
        for seq, record in outstanding.items():
            if record.sacked or record.lost or record.retx_pending:
                continue
            # evidence threshold: for first transmissions, SACKs above the
            # packet itself; for retransmissions, SACKs above the highest
            # sequence that had been sent when the retransmission went out
            evidence_floor = seq if record.retx_count == 0 else record.retx_guard
            above = len(sacked_seqs) - bisect.bisect_right(
                sacked_seqs, evidence_floor
            )
            if above >= self.dupack_threshold:
                record.lost = True
                record.retx_pending = True
                self._pipe -= 1
                self._retx_pending += 1
                newly_lost.append(record)
                self.total_lost += 1
        return newly_lost

    def mark_outstanding_lost(self) -> int:
        """Presume every unSACKed outstanding packet lost (RTO recovery).

        Go-back-N retransmission re-registers those sequence numbers via
        :meth:`on_send`, putting them back into the pipe.  Returns the
        number of records marked.
        """
        for record in self._outstanding.values():
            if not record.sacked and not record.lost:
                # in the pipe, so not awaiting retransmission either
                record.lost = True
        marked, self._pipe = self._pipe, 0
        return marked

    def pipe(self) -> int:
        """RFC 6675-style in-flight estimate.

        Counts outstanding packets that are neither SACKed nor presumed
        lost; a retransmission puts its packet back into the pipe
        (``lost`` is cleared by :meth:`on_retransmit`).
        """
        return self._pipe

    # ------------------------------------------------------------------
    def retransmission_candidates(self) -> List[SentRecord]:
        """Packets marked lost and awaiting retransmission, in seq order."""
        if not self._retx_pending:
            return []
        return [rec for rec in self._outstanding.values() if rec.retx_pending]

    def forward_point(self, default: int) -> int:
        """The PR-SCTP forward-ack point advertised to the receiver.

        Everything below it is cumulatively acked, SACKed (delivered) or
        abandoned — i.e. the receiver will never see a retransmission of
        a hole below this sequence number.  ``default`` is the sender's
        next fresh sequence number (used when nothing is outstanding).
        """
        for seq, record in self._outstanding.items():
            if not record.sacked:
                return seq
        return default

    def prune_delivered(self, floor: int) -> int:
        """Drop SACKed records below ``floor``; returns how many.

        Without this, compositions that abandon losses (reliability NONE
        or partial) would keep delivered records forever, because the
        receiver's cumulative ack cannot cross the abandoned holes until
        it learns the forward point.
        """
        if not self._sacked:
            return 0
        stale: List[SentRecord] = []
        for seq, record in self._outstanding.items():
            if seq >= floor:
                break
            if record.sacked:
                stale.append(record)
        for record in stale:
            del self._outstanding[record.seq]
            self._uncount(record)
        return len(stale)

    def record_for(self, seq: int) -> Optional[SentRecord]:
        """Look up an outstanding packet's record."""
        return self._outstanding.get(seq)

    @property
    def in_flight(self) -> int:
        """Packets sent but neither cumulatively nor selectively acked."""
        return len(self._outstanding) - self._sacked

    @property
    def outstanding(self) -> int:
        """All tracked (not yet cumulatively acked / abandoned) packets."""
        return len(self._outstanding)

    def oldest_unacked(self) -> Optional[SentRecord]:
        """The outstanding record with the smallest sequence number."""
        return next(iter(self._outstanding.values()), None)
