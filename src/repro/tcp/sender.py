"""TCP sender: Reno/NewReno with optional SACK-based recovery.

Window arithmetic is in segments (floats, so congestion avoidance can
add ``1/cwnd`` per ACK).  The sender is greedy (bulk transfer): it
fills the window whenever ACKs open it.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.sack.scoreboard import SenderScoreboard
from repro.sim.engine import Simulator, Timer
from repro.sim.node import Agent
from repro.sim.packet import Packet, PacketKind, PacketPool, TcpSegmentHeader
from repro.tfrc.rtt import RtoEstimator

#: Size of a pure ACK on the wire, bytes.
ACK_SIZE = 40

#: Duplicate-ACK threshold for fast retransmit (RFC 5681).
DUPACK_THRESHOLD = 3


class TcpSender(Agent):
    """Bulk-transfer TCP sender.

    Parameters
    ----------
    sim: simulator.
    dst: receiver's node name.
    segment_size: payload bytes per segment.
    newreno: stay in fast recovery across partial ACKs (RFC 6582);
        False gives plain Reno.
    sack: drive retransmissions from the SACK scoreboard when the
        receiver supplies blocks.
    initial_cwnd: initial window in segments (RFC 3390 default of ~3
        for 1000-byte segments).
    max_cwnd: optional receiver/window clamp, segments.
    min_rto: RTO floor in seconds (simulation convention 0.2 s).
    size_bytes: optional finite byte budget.  The sender transmits
        ``ceil(size_bytes / segment_size)`` segments of new data, stops
        itself once the last one is cumulatively acknowledged, stamps
        ``completed_at`` and fires ``on_complete`` (the flow-lifecycle
        hook).  ``None`` keeps the historical unbounded bulk sender.
    """

    __slots__ = (
        "dst", "segment_size", "newreno", "sack", "cwnd", "initial_cwnd",
        "ssthresh", "max_cwnd", "snd_una", "snd_nxt", "_dup_acks",
        "_in_recovery", "_recover", "rto", "_rto_timer", "_retransmitted",
        "scoreboard", "_pool", "_running", "_max_segments", "size_bytes",
        "completed_at", "on_complete", "sent_segments", "retransmissions",
        "timeouts", "fast_retransmits",
    )

    def __init__(
        self,
        sim: Simulator,
        dst: str,
        segment_size: int = 1000,
        newreno: bool = True,
        sack: bool = False,
        initial_cwnd: float = 3.0,
        max_cwnd: Optional[float] = None,
        min_rto: float = 0.2,
        size_bytes: Optional[int] = None,
    ):
        super().__init__(sim)
        self.dst = dst
        self.segment_size = segment_size
        self.newreno = newreno
        self.sack = sack
        self.cwnd = float(initial_cwnd)
        self.initial_cwnd = float(initial_cwnd)
        self.ssthresh = float("inf")
        self.max_cwnd = max_cwnd
        self.snd_una = 0
        self.snd_nxt = 0
        self._dup_acks = 0
        self._in_recovery = False
        self._recover = -1
        self.rto = RtoEstimator(min_rto=min_rto)
        self._rto_timer = Timer(sim, self._on_rto)
        self._retransmitted: Set[int] = set()
        self.scoreboard = SenderScoreboard()
        self._pool = PacketPool.of(sim)
        self._running = False
        if size_bytes is not None and size_bytes <= 0:
            raise ValueError("size_bytes must be positive (or None)")
        self._max_segments = (
            -(-size_bytes // segment_size) if size_bytes is not None else None
        )
        self.size_bytes = size_bytes
        self.completed_at: Optional[float] = None
        self.on_complete: Optional[Callable[["TcpSender"], None]] = None
        self.sent_segments = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the connection (model: start sending immediately)."""
        if self._running:
            return
        self._running = True
        self._fill_window()

    def stop(self) -> None:
        """Stop transmitting and cancel the RTO timer."""
        self._running = False
        self._rto_timer.stop()

    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        """Segments in flight (sent, not cumulatively acked)."""
        return self.snd_nxt - self.snd_una

    def _pipe(self) -> float:
        """In-flight estimate that also counts retransmissions.

        With SACK this is the scoreboard's RFC 6675 pipe; without, the
        classic ``snd_nxt - snd_una``.
        """
        if self.sack:
            return self.scoreboard.pipe()
        return self.flight_size

    def _window(self) -> float:
        w = self.cwnd
        if self.max_cwnd is not None:
            w = min(w, self.max_cwnd)
        return w

    def _fill_window(self) -> None:
        if not self._running:
            return
        # SACK recovery: repair known holes before sending new data
        if self.sack and self._in_recovery:
            for record in self.scoreboard.retransmission_candidates():
                if self._pipe() >= self._window():
                    break
                self._retransmit(record.seq)
        limit = self._max_segments
        while self._pipe() < self._window():
            if limit is not None and self.snd_nxt >= limit:
                break  # byte budget: no new data beyond the last segment
            self._transmit(self.snd_nxt, fresh=True)
            self.snd_nxt += 1
        if self._awaiting_ack() and not self._rto_timer.armed:
            self._rto_timer.restart(self.rto.rto())

    def _awaiting_ack(self) -> bool:
        """True while any data still needs acknowledgment.

        ``snd_nxt - snd_una`` alone is wrong with SACK: after a
        go-back-N rewind the two coincide while dropped retransmissions
        still sit in the scoreboard — the RTO must stay armed for them.
        """
        return self.flight_size > 0 or self.scoreboard.outstanding > 0

    def _transmit(self, seq: int, fresh: bool) -> None:
        now = self.sim.now
        src = self.node.name if self.node else "?"
        pool = self._pool
        packet = (
            pool.acquire(
                TcpSegmentHeader, src, self.dst, self.flow_id,
                self.segment_size, PacketKind.DATA, now,
            )
            if pool is not None
            else None
        )
        if packet is not None:
            header = packet.header
            header.seq = seq
            header.payload = self.segment_size
            header.ack = -1
            header.syn = False
            header.fin = False
            header.sack_blocks = ()
            header.timestamp = now
            header.timestamp_echo = 0.0
        else:
            packet = Packet(
                src=src,
                dst=self.dst,
                flow_id=self.flow_id,
                size=self.segment_size,
                kind=PacketKind.DATA,
                header=TcpSegmentHeader(
                    seq=seq, payload=self.segment_size, timestamp=now
                ),
                created_at=now,
            )
            if pool is not None:
                packet.pooled = True
        if fresh:
            self.scoreboard.on_send(seq, self.segment_size, self.sim.now)
        else:
            self.scoreboard.on_retransmit(
                seq, self.sim.now, highest_sent=self.snd_nxt - 1
            )
        self.sent_segments += 1
        self.send(packet)

    def _retransmit(self, seq: int) -> None:
        self._retransmitted.add(seq)
        self.retransmissions += 1
        self._transmit(seq, fresh=False)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Process an ACK segment."""
        header = packet.header
        if not isinstance(header, TcpSegmentHeader) or header.ack < 0:
            return
        ack = header.ack  # next expected segment
        if self.sack and header.sack_blocks:
            self.scoreboard.on_feedback(ack - 1, header.sack_blocks, self.sim.now)
        else:
            self.scoreboard.on_feedback(ack - 1, (), self.sim.now)
        if ack > self.snd_una:
            self._on_new_ack(ack, header)
        elif ack == self.snd_una and self.flight_size > 0:
            self._on_dup_ack()
        self._fill_window()
        if self._pool is not None:  # ACK fully consumed: recycle
            self._pool.release(packet)

    def _on_new_ack(self, ack: int, header: TcpSegmentHeader) -> None:
        newly_acked = ack - self.snd_una
        self.snd_una = ack
        if self.snd_nxt < self.snd_una:
            # a spurious RTO rewound snd_nxt and the original ACKs then
            # overtook it: never (re)send below the cumulative ack
            self.snd_nxt = self.snd_una
        if (
            self._max_segments is not None
            and self.snd_una >= self._max_segments
        ):
            # the cumulative ack covers the whole byte budget (nothing
            # above it was ever sent): the flow is done
            self._complete()
            return
        # Karn: only sample RTT for never-retransmitted segments
        if header.timestamp_echo > 0 and (ack - 1) not in self._retransmitted:
            self.rto.update(self.sim.now - header.timestamp_echo)
        if self._in_recovery:
            if ack > self._recover:
                self._exit_recovery()
            elif self.sack:
                # RFC 6675: repair is scoreboard-driven (pipe < cwnd in
                # _fill_window); stay in recovery until the full ACK
                self._rto_timer.restart(self.rto.rto())
                return
            elif self.newreno:
                # partial ACK: retransmit the next hole, deflate
                self._retransmit(self.snd_una)
                self.cwnd = max(1.0, self.cwnd - newly_acked + 1.0)
                self._rto_timer.restart(self.rto.rto())
                return
            else:
                self._exit_recovery()
        self._dup_acks = 0
        self._grow_cwnd(newly_acked)
        if self._awaiting_ack():
            self._rto_timer.restart(self.rto.rto())
        else:
            self._rto_timer.stop()

    def _grow_cwnd(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start
            else:
                self.cwnd += 1.0 / self.cwnd  # congestion avoidance

    def _on_dup_ack(self) -> None:
        self._dup_acks += 1
        if self._in_recovery:
            if not self.sack:
                self.cwnd += 1.0  # Reno window inflation
            # with SACK, the pipe shrinking plays inflation's role
        elif self._dup_acks == DUPACK_THRESHOLD:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self.ssthresh = max(self._pipe() / 2.0, 2.0)
        self._in_recovery = True
        self._recover = self.snd_nxt
        self.fast_retransmits += 1
        self._retransmit(self.snd_una)
        if self.sack:
            self.cwnd = self.ssthresh  # RFC 6675: pipe-limited sending
        else:
            self.cwnd = self.ssthresh + DUPACK_THRESHOLD
        self._rto_timer.restart(self.rto.rto())

    def _exit_recovery(self) -> None:
        self._in_recovery = False
        self.cwnd = self.ssthresh
        self._dup_acks = 0
        self._forget_acked_retransmissions()

    def _forget_acked_retransmissions(self) -> None:
        """Drop the Karn marks below ``snd_una``: a new ACK's check reads
        ``ack - 1 >= snd_una``, so no later check reads them.  Run when
        recovery ends or an RTO fires, not per ACK."""
        una = self.snd_una
        self._retransmitted = {seq for seq in self._retransmitted if seq >= una}

    def _complete(self) -> None:
        if self.completed_at is not None:
            return
        self.completed_at = self.sim.now
        self.stop()
        if self.on_complete is not None:
            self.on_complete(self)

    # ------------------------------------------------------------------
    def _on_rto(self) -> None:
        if not self._running or not self._awaiting_ack():
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2.0)
        self.cwnd = 1.0
        self._dup_acks = 0
        self._in_recovery = False
        self.rto.backoff()
        # go-back-N: everything unSACKed is presumed lost and will be
        # re-sent from the first unacked segment
        self.scoreboard.mark_outstanding_lost()
        self.snd_nxt = self.snd_una
        self._forget_acked_retransmissions()
        self._retransmitted.add(self.snd_una)
        self.retransmissions += 1
        self._fill_window()
        self._rto_timer.restart(self.rto.rto())
