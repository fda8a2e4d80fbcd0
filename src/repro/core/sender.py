"""The composed QTP sender.

One class covers the sender-side compositions:

* stock TFRC sender (rate control only),
* QTPAF sender (gTFRC rate control + SACK scoreboard + full-reliability
  retransmission),
* QTPlight sender (TFRC rate control + scoreboard + sender-side loss
  estimation from SACK vectors),
* any partial-reliability variant in between.

Transmission is paced at the controller's allowed rate; at each tick a
pending retransmission (if the reliability policy still wants it) takes
precedence over new data.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.core.profile import (
    CongestionControl,
    LossEstimationSite,
    ReliabilityMode,
    TransportProfile,
)
from repro.core.qtplight import SenderLossEstimator
from repro.metrics.cost import CostMeter
from repro.reliability.policies import policy_for
from repro.sack.scoreboard import SenderScoreboard
from repro.sim.engine import Simulator, Timer
from repro.sim.node import Agent
from repro.sim.packet import (
    AppDataHeader,
    Packet,
    PacketKind,
    PacketPool,
    SackFeedbackHeader,
    TfrcDataHeader,
    TfrcFeedbackHeader,
)
from repro.tfrc.gtfrc import GtfrcRateController
from repro.tfrc.rate_control import TfrcRateController


class QtpSender(Agent):
    """Profile-composed sender endpoint.

    Parameters
    ----------
    sim: simulator.
    dst: receiver's node name.
    profile: the negotiated :class:`TransportProfile`.
    bulk: when True (default) the sender always has data; when False it
        only transmits messages queued via :meth:`enqueue_message`.
    sender_meter: cost meter charged for sender-side estimation work
        (shows where QTPlight moved the load).
    controller: override the congestion controller (tests/ablations).
    size_bytes: optional finite byte budget for the *bulk* source.  The
        sender stops injecting new data once that many fresh bytes have
        been transmitted, and completes — stamping ``completed_at`` and
        firing ``on_complete`` — once the budget is also out of the
        reliability scoreboard (acknowledged or abandoned; immediately
        after the last send when the profile keeps no scoreboard).
        Explicitly queued messages are not budgeted.
    """

    __slots__ = (
        "dst", "profile", "bulk", "controller", "policy", "scoreboard",
        "estimator", "_app_queue", "size_bytes", "_new_bytes_sent",
        "completed_at", "on_complete", "next_seq", "sent_packets",
        "sent_bytes", "retransmissions", "abandoned", "feedback_received",
        "_running", "_send_event", "_nofeedback", "_pool",
        "_x_recv_sender", "_forward_cache", "_last_send_time",
        "_audit_enabled", "_skipped", "_audit_rng", "_next_audit_seq",
        "cheater_detected", "_sent_bytes_at_last_fb",
    )

    def __init__(
        self,
        sim: Simulator,
        dst: str,
        profile: TransportProfile,
        bulk: bool = True,
        sender_meter: Optional[CostMeter] = None,
        controller: Optional[TfrcRateController] = None,
        size_bytes: Optional[int] = None,
    ):
        super().__init__(sim)
        self.dst = dst
        self.profile = profile
        self.bulk = bulk
        self.controller = controller or self._build_controller(profile)
        self.policy = policy_for(profile)
        self.scoreboard = (
            SenderScoreboard() if profile.needs_sack_feedback else None
        )
        self.estimator = (
            SenderLossEstimator(profile.segment_size, meter=sender_meter)
            if profile.loss_estimation is LossEstimationSite.SENDER
            else None
        )
        self._app_queue: Deque[Tuple[AppDataHeader, int]] = deque()
        if size_bytes is not None and size_bytes <= 0:
            raise ValueError("size_bytes must be positive (or None)")
        self.size_bytes = size_bytes
        self._new_bytes_sent = 0
        self.completed_at: Optional[float] = None
        self.on_complete: Optional[Callable[["QtpSender"], None]] = None
        self.next_seq = 0
        self.sent_packets = 0
        self.sent_bytes = 0
        self.retransmissions = 0
        self.abandoned = 0
        self.feedback_received = 0
        self._running = False
        self._send_event = None
        self._nofeedback = Timer(sim, self._on_nofeedback)
        self._pool = PacketPool.of(sim)
        self._x_recv_sender = 0.0
        self._forward_cache = 0
        self._last_send_time = 0.0
        # audit-skip lie detection (sender-side estimation only): seqs
        # allocated but never transmitted; acknowledging one is proof of
        # a fabricated SACK vector
        self._audit_enabled = (
            self.estimator is not None and profile.audit_skip_interval > 0
        )
        self._skipped: set[int] = set()
        self._audit_rng = sim.rng(f"audit-{dst}")
        self._next_audit_seq = (
            self._draw_audit_gap() if self._audit_enabled else -1
        )
        self.cheater_detected = False
        self._sent_bytes_at_last_fb = 0

    @staticmethod
    def _build_controller(profile: TransportProfile) -> TfrcRateController:
        if profile.congestion_control is CongestionControl.GTFRC:
            target = profile.target_rate_bytes
            assert target is not None  # enforced by the profile
            return GtfrcRateController(target, profile.segment_size)
        if profile.congestion_control is CongestionControl.TFRC:
            return TfrcRateController(profile.segment_size)
        raise ValueError(
            f"QtpSender does not implement {profile.congestion_control!r}; "
            "use the TCP baseline for WINDOW"
        )

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def enqueue_message(
        self, app: AppDataHeader, size: Optional[int] = None
    ) -> None:
        """Queue one application message (one packet) for transmission."""
        self._app_queue.append((app, size or self.profile.segment_size))

    @property
    def backlog(self) -> int:
        """Messages queued and not yet first-transmitted."""
        return len(self._app_queue)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin paced transmission."""
        if self._running:
            return
        self._running = True
        self._nofeedback.restart(self.controller.nofeedback_interval())
        self._tick()

    def stop(self) -> None:
        """Stop sending and cancel timers."""
        self._running = False
        if self._send_event is not None:
            self._send_event.cancel()
            self._send_event = None
        self._nofeedback.stop()

    # ------------------------------------------------------------------
    # paced transmission
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._send_event = None
        if not self._running:
            return
        self._last_send_time = self.sim.now
        self._transmit_something()
        self._maybe_complete()
        if not self._running:  # completed (or stopped) during this tick
            return
        self._send_event = self.sim.schedule(
            self.controller.send_interval(), self._tick
        )

    def _reschedule_tick(self) -> None:
        """Re-pace the pending transmission after a rate change.

        Without this, a rate increase granted by feedback would only
        take effect after the previously scheduled (possibly very long)
        inter-packet gap — fatal right after the 1 packet/s start-up.
        """
        if not self._running or self._send_event is None:
            return
        due = max(
            self.sim.now, self._last_send_time + self.controller.send_interval()
        )
        if due >= self._send_event.time:
            return  # never delay an already-scheduled earlier send
        self._send_event.cancel()
        self._send_event = self.sim.schedule_at(due, self._tick)

    def _transmit_something(self) -> None:
        if self._retransmit_one():
            return
        if self._app_queue:
            app, size = self._app_queue.popleft()
            self._transmit_new(app, size)
        elif self.bulk and (
            self.size_bytes is None or self._new_bytes_sent < self.size_bytes
        ):
            self._transmit_new(None, self.profile.segment_size)

    def _maybe_complete(self) -> None:
        """Finish a byte-budgeted flow once its data is out of flight.

        Budget spent, nothing queued, and — when the profile tracks
        outstanding data — an empty scoreboard (everything acknowledged
        or abandoned).  Profiles without SACK feedback complete right
        after the budget's last transmission (send-based completion,
        like the unreliable media sources they model).
        """
        if self.size_bytes is None or self.completed_at is not None:
            return
        if not self._running or self._new_bytes_sent < self.size_bytes:
            return
        if self._app_queue:
            return
        if self.scoreboard is not None and self.scoreboard.outstanding > 0:
            return
        self.completed_at = self.sim.now
        self.stop()
        if self.on_complete is not None:
            self.on_complete(self)

    def _retransmit_one(self) -> bool:
        if self.scoreboard is None:
            return False
        rtt = self.controller.current_rtt or 0.0
        for record in self.scoreboard.retransmission_candidates():
            if self.policy.should_retransmit(record, self.sim.now, rtt):
                self.scoreboard.on_retransmit(
                    record.seq, self.sim.now, highest_sent=self.next_seq - 1
                )
                self.retransmissions += 1
                self._emit(record.seq, record.size, record.app, retx=True)
                return True
            self.scoreboard.abandon(record.seq)
            self.abandoned += 1
        return False

    def _draw_audit_gap(self) -> int:
        base = self.profile.audit_skip_interval
        return self.next_seq + self._audit_rng.randint(base // 2, base + base // 2)

    def _transmit_new(self, app: Optional[AppDataHeader], size: int) -> None:
        if self._audit_enabled and self.next_seq >= self._next_audit_seq:
            # burn one sequence number without sending anything; the
            # honest receiver sees a loss, a lying receiver may "ack" it
            self._skipped.add(self.next_seq)
            self.next_seq += 1
            self._next_audit_seq = self._draw_audit_gap()
        seq = self.next_seq
        self.next_seq += 1
        if self.scoreboard is not None:
            self.scoreboard.on_send(seq, size, self.sim.now, app)
        self._new_bytes_sent += size  # budget counts fresh data only
        self._emit(seq, size, app, retx=False)

    def _emit(
        self, seq: int, size: int, app: Optional[AppDataHeader], retx: bool
    ) -> None:
        # the forward point is recomputed per feedback, not per packet
        forward = self._forward_cache if self.scoreboard is not None else 0
        now = self.sim.now
        src = self.node.name if self.node else "?"
        rtt = self.controller.current_rtt or 0.0
        pool = self._pool
        packet = (
            pool.acquire(
                TfrcDataHeader, src, self.dst, self.flow_id,
                size, PacketKind.DATA, now, app=app,
            )
            if pool is not None
            else None
        )
        if packet is not None:
            header = packet.header
            header.seq = seq
            header.timestamp = now
            header.rtt_estimate = rtt
            header.forward_ack = forward
        else:
            packet = Packet(
                src=src,
                dst=self.dst,
                flow_id=self.flow_id,
                size=size,
                kind=PacketKind.DATA,
                header=TfrcDataHeader(
                    seq=seq,
                    timestamp=now,
                    rtt_estimate=rtt,
                    forward_ack=forward,
                ),
                created_at=now,
                app=app,
            )
            if pool is not None:
                packet.pooled = True
        self.sent_packets += 1
        self.sent_bytes += size
        self.send(packet)

    # ------------------------------------------------------------------
    # feedback processing
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Process a receiver report (either feedback format)."""
        header = packet.header
        if isinstance(header, SackFeedbackHeader):
            self._on_sack_feedback(header)
        elif isinstance(header, TfrcFeedbackHeader):
            self._on_tfrc_feedback(header)
        else:
            return
        if self._pool is not None:  # report fully consumed: recycle
            self._pool.release(packet)

    def _rtt_sample(self, timestamp_echo: float, elapsed: float) -> float:
        sample = self.sim.now - timestamp_echo - elapsed
        return sample if sample > 0 else 1e-6

    def _on_tfrc_feedback(self, header: TfrcFeedbackHeader) -> None:
        self.feedback_received += 1
        sample = self._rtt_sample(header.timestamp_echo, header.elapsed)
        self.controller.on_feedback(self.sim.now, header.p, header.x_recv, sample)
        self._after_feedback()

    def _on_sack_feedback(self, header: SackFeedbackHeader) -> None:
        self.feedback_received += 1
        if self._audit_enabled and self._audit_violated(header):
            self._on_cheater_detected()
        if self.cheater_detected:
            # provably fabricated reports: stop trusting feedback; the
            # nofeedback timer keeps the rate at the floor
            return
        sample = self._rtt_sample(header.timestamp_echo, header.elapsed)
        digest = None
        if self.scoreboard is not None:
            digest = self.scoreboard.on_feedback(
                header.cum_ack, header.blocks, self.sim.now
            )
        if self.estimator is not None:
            p, x_recv = self._sender_side_estimates(header, digest, sample)
        else:
            # receiver-side estimation rode along in the SACK report
            p = header.p if header.p is not None else 0.0
            x_recv = header.x_recv if header.x_recv is not None else 0.0
        if digest is not None:
            self._apply_reliability(digest, sample)
        if self.scoreboard is not None:
            self._forward_cache = self.scoreboard.forward_point(self.next_seq)
            self.scoreboard.prune_delivered(self._forward_cache)
        self.controller.on_feedback(self.sim.now, p, x_recv, sample)
        self._after_feedback()

    def _audit_violated(self, header: SackFeedbackHeader) -> bool:
        """True when the report acknowledges a never-sent sequence number.

        Skipped numbers below the advertised forward-ack floor are
        legitimately coverable (the receiver was told to move past
        them), so they are dropped from the watch set instead.
        """
        floor = self._forward_cache
        violated = False
        for seq in sorted(self._skipped):
            claimed = seq <= header.cum_ack or any(
                start <= seq < end for start, end in header.blocks
            )
            if claimed and seq >= floor:
                violated = True
                break
        self._skipped = {s for s in self._skipped if s >= floor}
        return violated

    def _on_cheater_detected(self) -> None:
        if self.cheater_detected:
            return
        self.cheater_detected = True
        # punish: collapse to the protocol's minimum rate immediately
        self.controller.rate = self.profile.segment_size / 64.0

    def _sender_side_estimates(
        self, header: SackFeedbackHeader, digest, rtt_sample: float
    ) -> Tuple[float, float]:
        assert self.estimator is not None
        # prefer the receiver's own O(1) interval measurement: deriving it
        # from feedback arrival spacing is unstable when an immediate and a
        # timed report land back to back
        interval = header.interval if header.interval > 0 else rtt_sample
        # plausibility clamp: the receiver cannot have received more
        # bytes than the sender transmitted since the previous report
        sent_window = self.sent_bytes - self._sent_bytes_at_last_fb
        recv_bytes = min(header.recv_bytes, sent_window + 4 * self.profile.segment_size)
        self._sent_bytes_at_last_fb = self.sent_bytes
        if interval > 0:
            self._x_recv_sender = recv_bytes / interval
        rtt = self.controller.current_rtt or rtt_sample
        if digest is not None:
            self.estimator.on_acked(digest.newly_acked)
            self.estimator.on_lost(digest.newly_lost, rtt, self._x_recv_sender)
        return self.estimator.loss_event_rate(), self._x_recv_sender

    def _apply_reliability(self, digest, rtt_sample: float) -> None:
        if self.scoreboard is None:
            return
        rtt = self.controller.current_rtt or rtt_sample
        if self.profile.reliability is ReliabilityMode.NONE:
            # no repair service: drop lost packets from tracking at once
            for record in digest.newly_lost:
                self.scoreboard.abandon(record.seq)
            return
        for record in digest.newly_lost:
            if not self.policy.should_retransmit(record, self.sim.now, rtt):
                self.scoreboard.abandon(record.seq)
                self.abandoned += 1

    def _after_feedback(self) -> None:
        self._nofeedback.restart(self.controller.nofeedback_interval())
        self._reschedule_tick()
        # ack-based completion: this feedback may have drained the last
        # budgeted bytes out of the scoreboard
        self._maybe_complete()

    def _on_nofeedback(self) -> None:
        if not self._running:
            return
        self.controller.on_nofeedback_timeout(self.sim.now)
        self._nofeedback.restart(self.controller.nofeedback_interval())

    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Current allowed sending rate, bytes/s."""
        return self.controller.rate
