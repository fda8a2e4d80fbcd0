"""The composed QTP receiver.

One class covers every receiver-side composition of the profile axes:

* stock TFRC receiver (loss estimation + plain reports),
* QTPAF receiver (loss estimation + SACK blocks + ordered delivery),
* QTPlight receiver (SACK bookkeeping only — the light path the paper
  designs for resource-constrained mobiles).

Per-packet work is charged to an injectable cost meter, which is what
experiment T3 compares across compositions.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.profile import ReliabilityMode, TransportProfile
from repro.core.qtplight import LyingFeedbackFilter
from repro.metrics.cost import CostMeter
from repro.metrics.recorder import FlowRecorder
from repro.reliability.delivery import DeliveryBuffer
from repro.sack.blocks import ReceiverSackState
from repro.sim.engine import Simulator, Timer
from repro.sim.node import Agent
from repro.sim.packet import (
    Packet,
    PacketKind,
    PacketPool,
    SackFeedbackHeader,
    TfrcDataHeader,
    TfrcFeedbackHeader,
)
from repro.tfrc.equation import solve_loss_rate
from repro.tfrc.loss_history import LossEventEstimator

#: Size of a TFRC feedback packet on the wire (bytes), before SACK
#: blocks and the profile's padding.
FEEDBACK_SIZE = 40


class QtpReceiver(Agent):
    """Profile-composed receiver endpoint.

    Parameters
    ----------
    sim: simulator.
    profile: the negotiated :class:`TransportProfile`.
    recorder: optional recorder fed with every *fresh* arrival
        (wire goodput).
    meter: optional cost meter for the receiver's per-packet work.
    on_deliver: application callback, invoked respecting the profile's
        delivery semantics (ordered when reliability is on).
    feedback_filter: optional selfish-receiver mangler (experiment T4).
    """

    def __init__(
        self,
        sim: Simulator,
        profile: TransportProfile,
        recorder: Optional[FlowRecorder] = None,
        meter: Optional[CostMeter] = None,
        on_deliver: Optional[Callable[[Packet], None]] = None,
        feedback_filter: Optional[LyingFeedbackFilter] = None,
    ):
        super().__init__(sim)
        self.profile = profile
        self.recorder = recorder
        self.meter = meter
        self.on_deliver = on_deliver
        self.feedback_filter = feedback_filter
        self.sack_state = (
            ReceiverSackState(meter=meter) if profile.needs_sack_feedback else None
        )
        self.estimator = (
            LossEventEstimator(
                meter=meter, first_interval_fn=self._synthetic_first_interval
            )
            if profile.receiver_runs_estimator
            else None
        )
        self._buffer: Optional[DeliveryBuffer] = None
        if profile.reliability is not ReliabilityMode.NONE:
            gap_timeout = (
                None
                if profile.reliability is ReliabilityMode.FULL
                else max(profile.partial_deadline, 0.05)
            )
            self._buffer = DeliveryBuffer(self._deliver_app, gap_timeout)
        self._gap_timer = Timer(sim, self._poll_buffer)
        self._feedback_timer = Timer(sim, self._on_feedback_timer)
        self._pool = PacketPool.of(sim)
        self._peer = ""
        self._rtt_hint = 0.0
        self._segment_size = profile.segment_size
        self._last_data_ts = 0.0
        self._last_data_arrival = 0.0
        self._bytes_since_feedback = 0
        self._last_feedback_time: Optional[float] = None
        self._x_recv = 0.0
        self.received_packets = 0
        self.feedback_sent = 0
        self.app_delivered = 0
        self.app_latencies: List[float] = []

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Handle an arriving data packet."""
        header = packet.header
        if not isinstance(header, TfrcDataHeader):
            return
        if not self._peer:
            self._peer = packet.src
        self.received_packets += 1
        self._segment_size = packet.size
        self._rtt_hint = header.rtt_estimate
        self._last_data_ts = header.timestamp
        self._last_data_arrival = self.sim.now
        fresh = True
        if self.sack_state is not None:
            fresh = self.sack_state.record(header.seq, packet.size)
            if header.forward_ack > 0:
                self.sack_state.advance_floor(header.forward_ack)
                if self._buffer is not None:
                    self._buffer.advance(header.forward_ack, self.sim.now)
        new_event = False
        if self.estimator is not None:
            new_event = self.estimator.on_packet(
                header.seq, self.sim.now, max(header.rtt_estimate, 1e-6)
            )
        if fresh:
            self._bytes_since_feedback += packet.size
            if self.recorder is not None:
                self.recorder.record(self.sim.now, packet)
            self._handle_delivery(header.seq, packet)
        elif self._pool is not None:
            # duplicate: neither buffered nor delivered, so it is
            # terminal right here
            self._pool.release(packet)
        if self._last_feedback_time is None or new_event:
            self._send_feedback()
        elif not self._feedback_timer.armed:
            self._feedback_timer.restart(self._feedback_interval())

    def _handle_delivery(self, seq: int, packet: Packet) -> None:
        if self._buffer is None:
            self._deliver_app(packet)
            return
        duplicates_before = self._buffer.duplicates
        self._buffer.push(seq, packet, self.sim.now)
        if self._buffer.duplicates > duplicates_before and self._pool is not None:
            # the buffer rejected it (seq below the delivery floor, or
            # already pending): neither buffered nor delivered, so it
            # is terminal right here
            self._pool.release(packet)
        if self._buffer.waiting and not self._gap_timer.armed:
            self._gap_timer.restart(self._gap_poll_interval())

    def _deliver_app(self, packet: Packet) -> None:
        self.app_delivered += 1
        self.app_latencies.append(self.sim.now - packet.created_at)
        if self.on_deliver is not None:
            self.on_deliver(packet)
        if self._pool is not None:
            # terminal sink: recycle unless the app callback claimed the
            # packet via Packet.retain() (which makes this a no-op)
            self._pool.release(packet)

    def _poll_buffer(self) -> None:
        if self._buffer is None:
            return
        self._buffer.poll(self.sim.now)
        if self._buffer.waiting:
            self._gap_timer.restart(self._gap_poll_interval())

    def _gap_poll_interval(self) -> float:
        return max(self.profile.partial_deadline / 4.0, 0.01)

    # ------------------------------------------------------------------
    def _feedback_interval(self) -> float:
        return self._rtt_hint if self._rtt_hint > 0 else 0.05

    def _measure_x_recv(self) -> float:
        if self._last_feedback_time is None:
            return self._x_recv
        interval = self.sim.now - self._last_feedback_time
        if interval < 1e-3:
            # an immediate (loss-triggered) report right after a timed one:
            # too short a window to measure a rate, keep the previous value
            return self._x_recv
        return self._bytes_since_feedback / interval

    def _synthetic_first_interval(self) -> Optional[float]:
        rtt = self._rtt_hint
        rate = self._x_recv if self._x_recv > 0 else self._measure_x_recv()
        if rtt <= 0 or rate <= 0:
            return None
        p = solve_loss_rate(self._segment_size, rtt, rate)
        if p <= 0:
            return None
        return 1.0 / p

    def _on_feedback_timer(self) -> None:
        # RFC 3448 §6: if no data arrived since the last report, stay
        # quiet (the sender's nofeedback timer will throttle); the timer
        # re-arms on the next data arrival.
        if self._bytes_since_feedback == 0:
            return
        self._send_feedback()

    def _send_feedback(self) -> None:
        if self.node is None or self.received_packets == 0:
            return
        elapsed = self.sim.now - self._last_data_arrival
        if self.sack_state is not None:
            header = self._build_sack_feedback(elapsed)
            size = FEEDBACK_SIZE + 8 * len(header.blocks) + self.profile.feedback_padding
        else:
            header = self._build_tfrc_feedback(elapsed)
            size = FEEDBACK_SIZE + self.profile.feedback_padding
        # report headers are built (and possibly mangled) fresh; the
        # pool recycles just the Packet shell around them
        pool = self._pool
        packet = (
            pool.acquire(
                type(header), self.node.name, self._peer, self.flow_id,
                size, PacketKind.FEEDBACK, self.sim.now,
            )
            if pool is not None
            else None
        )
        if packet is not None:
            packet.header = header
        else:
            packet = Packet(
                src=self.node.name,
                dst=self._peer,
                flow_id=self.flow_id,
                size=size,
                kind=PacketKind.FEEDBACK,
                header=header,
                created_at=self.sim.now,
            )
            if pool is not None:
                packet.pooled = True
        self.send(packet)
        self.feedback_sent += 1
        self._bytes_since_feedback = 0
        self._last_feedback_time = self.sim.now
        self._feedback_timer.restart(self._feedback_interval())

    def _build_tfrc_feedback(self, elapsed: float) -> TfrcFeedbackHeader:
        self._x_recv = self._measure_x_recv()
        assert self.estimator is not None
        header = TfrcFeedbackHeader(
            timestamp_echo=self._last_data_ts,
            elapsed=elapsed,
            x_recv=self._x_recv,
            p=self.estimator.loss_event_rate(),
            last_seq=self.estimator.max_seq,
        )
        if self.feedback_filter is not None:
            header = self.feedback_filter.mangle_tfrc(header)
        return header

    def _build_sack_feedback(self, elapsed: float) -> SackFeedbackHeader:
        assert self.sack_state is not None
        p = None
        x_recv = None
        if self.estimator is not None:
            self._x_recv = self._measure_x_recv()
            p = self.estimator.loss_event_rate()
            x_recv = self._x_recv
        interval = (
            self.sim.now - self._last_feedback_time
            if self._last_feedback_time is not None
            else 0.0
        )
        header = SackFeedbackHeader(
            cum_ack=self.sack_state.cum_ack,
            blocks=self.sack_state.blocks(self.profile.sack_block_limit),
            timestamp_echo=self._last_data_ts,
            elapsed=elapsed,
            recv_bytes=self._bytes_since_feedback,
            last_seq=self.sack_state.max_seq,
            interval=interval,
            p=p,
            x_recv=x_recv,
        )
        if self.feedback_filter is not None:
            header = self.feedback_filter.mangle_sack(header)
        return header

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Cancel timers."""
        self._feedback_timer.stop()
        self._gap_timer.stop()

    @property
    def delivered_in_order(self) -> int:
        """Messages handed to the application."""
        return self.app_delivered

    @property
    def skipped_messages(self) -> int:
        """Holes skipped by partial-reliability delivery."""
        return self._buffer.skipped if self._buffer is not None else 0
