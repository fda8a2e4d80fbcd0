"""QTPlight machinery: sender-side loss estimation and selfish receivers.

The paper's §3 shifts the RFC 3448 loss-event history from the receiver
to the sender: the receiver returns plain SACK vectors, and the sender
reconstructs loss events from its own scoreboard.  This module provides

* :class:`SenderLossEstimator` — the sender-side replacement for
  :class:`repro.tfrc.loss_history.LossEventEstimator`: it consumes
  scoreboard digests (newly lost / newly acked packets) instead of
  packet arrivals, clustering losses into events by their *send* times
  (the send timeline is the sender's best proxy for the receive
  timeline, offset by a constant half-RTT);
* selfish-receiver models for experiment T4 (Georg & Gorinsky):
  :class:`LyingFeedbackFilter` scales ``p`` down / ``x_recv`` up in
  standard TFRC reports, and fabricates SACK coverage for QTPlight
  reports — demonstrating that the sender-computed loss rate removes
  the cheating incentive.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.metrics.cost import CostMeter, NullMeter
from repro.sack.scoreboard import SentRecord
from repro.sim.packet import SackFeedbackHeader, TfrcFeedbackHeader
from repro.tfrc.equation import solve_loss_rate
from repro.tfrc.loss_history import LossIntervalHistory


class SenderLossEstimator:
    """RFC 3448 §5 loss-interval accounting, driven from the sender side.

    Parameters
    ----------
    segment_size:
        Used for the synthetic first interval (§6.3.1).
    meter:
        Cost meter charged for the (sender-side) estimation work; T3
        reports it alongside the receiver meters to show the shift.
    """

    __slots__ = (
        "meter", "segment_size", "history", "_last_event_seq",
        "_last_event_time", "_highest_acked", "losses_seen",
    )

    def __init__(self, segment_size: int = 1000, meter: Optional[CostMeter] = None):
        self.meter = meter or NullMeter()
        self.segment_size = segment_size
        self.history = LossIntervalHistory(meter=self.meter)
        self._last_event_seq: Optional[int] = None
        self._last_event_time = -1.0
        self._highest_acked = -1
        self.losses_seen = 0

    # ------------------------------------------------------------------
    def on_acked(self, records: Iterable[SentRecord]) -> None:
        """Track delivery progress (defines the open interval length)."""
        for record in records:
            self.meter.charge(1)
            if record.seq > self._highest_acked:
                self._highest_acked = record.seq

    def on_lost(
        self,
        records: Iterable[SentRecord],
        rtt: float,
        x_recv: float = 0.0,
    ) -> bool:
        """Fold newly lost packets into the loss-event history.

        ``rtt`` is the sender's current RTT estimate; ``x_recv`` the
        latest receive-rate estimate, used only to seed the first
        interval.  Returns True when a new loss event started.
        """
        new_event = False
        for record in sorted(records, key=lambda r: r.seq):
            self.meter.charge(4)
            self.losses_seen += 1
            loss_time = record.first_send_time
            if (
                self._last_event_seq is None
                or loss_time > self._last_event_time + rtt
            ):
                self._start_event(record.seq, loss_time, rtt, x_recv)
                new_event = True
        return new_event

    def _start_event(
        self, seq: int, loss_time: float, rtt: float, x_recv: float
    ) -> None:
        if self._last_event_seq is None:
            self.history.record_event(max(1, seq))
            synthetic = self._synthetic_first_interval(rtt, x_recv)
            if synthetic is not None:
                self.history.seed_first_interval(synthetic)
        else:
            self.history.record_event(max(1, seq - self._last_event_seq))
        self._last_event_seq = seq
        self._last_event_time = loss_time

    def _synthetic_first_interval(self, rtt: float, x_recv: float) -> Optional[float]:
        if rtt <= 0 or x_recv <= 0:
            return None
        p = solve_loss_rate(self.segment_size, rtt, x_recv)
        if p <= 0:
            return None
        return 1.0 / p

    # ------------------------------------------------------------------
    def loss_event_rate(self) -> float:
        """Current ``p`` (0.0 before any loss event)."""
        if self._last_event_seq is not None:
            self.history.open_interval = float(
                max(0, self._highest_acked - self._last_event_seq)
            )
        return self.history.loss_event_rate()

    @property
    def loss_events(self) -> int:
        """Number of loss events recorded."""
        return self.history.events


class LyingFeedbackFilter:
    """A selfish receiver's report mangler (Georg & Gorinsky model).

    Installed on a receiver, it rewrites outgoing reports to understate
    congestion:

    * standard TFRC reports: ``p`` is multiplied by ``p_scale`` (< 1)
      and ``x_recv`` by ``x_scale`` (> 1) — the classic attack that
      makes the sender overshoot;
    * QTPlight SACK reports: the receiver *claims* every hole was
      received by extending the cumulative ack to the highest sequence
      seen.  The sender then observes no losses — but it also never
      retransmits, and its own estimation is otherwise untouched, so
      the receiver cannot raise the sender's rate this way beyond
      suppressing genuine loss events it actually suffered.
    """

    def __init__(self, p_scale: float = 0.0, x_scale: float = 2.0):
        if p_scale < 0 or x_scale <= 0:
            raise ValueError("p_scale must be >= 0 and x_scale > 0")
        self.p_scale = p_scale
        self.x_scale = x_scale
        self.mangled_reports = 0

    def mangle_tfrc(self, header: TfrcFeedbackHeader) -> TfrcFeedbackHeader:
        """Rewrite a standard TFRC report in the attacker's favour."""
        self.mangled_reports += 1
        header.p = header.p * self.p_scale
        header.x_recv = header.x_recv * self.x_scale
        return header

    def mangle_sack(self, header: SackFeedbackHeader) -> SackFeedbackHeader:
        """Rewrite a QTPlight SACK report to hide all losses."""
        self.mangled_reports += 1
        header.cum_ack = max(header.cum_ack, header.last_seq)
        header.blocks = ()
        header.recv_bytes = int(header.recv_bytes * self.x_scale)
        if header.p is not None:
            header.p = header.p * self.p_scale
        if header.x_recv is not None:
            header.x_recv = header.x_recv * self.x_scale
        return header
