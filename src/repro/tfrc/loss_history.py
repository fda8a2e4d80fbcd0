"""Loss-event detection and the weighted-average loss interval (RFC 3448 §5).

Two classes:

* :class:`LossIntervalHistory` — the pure data structure: the last ``n``
  closed loss intervals, the open interval, and the weighted average
  with the RFC's ``1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2`` weights, including
  the rule that the open interval is only counted when doing so
  *decreases* the loss event rate (§5.4).

* :class:`LossEventEstimator` — arrival-driven loss detection: a packet
  is declared lost once ``ndupack`` (3) packets with higher sequence
  numbers have arrived (§5.1); losses within one RTT of the start of a
  loss event belong to that event (§5.2).

The estimator is the component whose per-packet cost the paper's
QTPlight moves off the receiver; both classes charge an injectable
:class:`~repro.metrics.cost.CostMeter` so experiment T3 can compare the
work against the QTPlight receiver's SACK bookkeeping.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.metrics.cost import CostMeter, NullMeter

#: RFC 3448 §5.4 weights, most recent interval first.
RFC3448_WEIGHTS = (1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2)

#: Packets with higher sequence numbers required to declare a loss (§5.1).
NDUPACK = 3


class LossIntervalHistory:
    """The last ``n`` closed loss intervals and their weighted average.

    An *interval* is the packet count between the first losses of two
    consecutive loss events.  The *open* interval counts packets since
    the most recent loss event started and is included in the average
    only when that lowers the resulting loss event rate, per §5.4.
    """

    __slots__ = (
        "weights", "n", "_wsum", "_intervals", "open_interval", "meter",
        "events",
    )

    def __init__(
        self,
        weights=RFC3448_WEIGHTS,
        meter: Optional[CostMeter] = None,
    ):
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = tuple(float(w) for w in weights)
        self.n = len(self.weights)
        # prefix sums of the weights, left-to-right (the same addition
        # order as ``sum(weights[:k])``): _wsum[k] is the total weight
        # of the k most recent intervals, so average_interval() never
        # re-sums the weight vector per call
        wsum = [0.0]
        acc = 0.0
        for w in self.weights:
            acc += w
            wsum.append(acc)
        self._wsum = tuple(wsum)
        self._intervals: Deque[float] = deque(maxlen=self.n)  # most recent first
        self.open_interval = 0.0
        self.meter = meter or NullMeter()
        self.events = 0

    # ------------------------------------------------------------------
    def record_event(self, closed_interval: float) -> None:
        """Start a new loss event, closing the previous interval.

        ``closed_interval`` is the packet count of the interval that
        just ended (distance between the two events' first losses).
        """
        if closed_interval < 0:
            raise ValueError("interval cannot be negative")
        self._intervals.appendleft(float(closed_interval))
        self.open_interval = 0.0
        self.events += 1
        self.meter.charge(4)
        self._account_memory()

    def seed_first_interval(self, interval: float) -> None:
        """Install the synthetic first interval of §6.3.1.

        After the very first loss event, the history is primed with the
        interval corresponding to the receive rate observed before the
        loss, so the sender does not halve its rate more than once.
        """
        if self.events != 1 or len(self._intervals) != 1:
            raise ValueError("can only seed right after the first event")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._intervals[0] = float(interval)
        self.meter.charge(2)

    def extend_open(self, packets: float = 1.0) -> None:
        """Count packets into the open (current) interval."""
        self.open_interval += packets
        self.meter.charge(1)

    # ------------------------------------------------------------------
    def average_interval(self) -> float:
        """Weighted average loss interval per §5.4 (0.0 with no history).

        Single pass over the (≤ n) closed intervals, using the
        precomputed weight prefix sums; the arithmetic (product order,
        addition order, clamping) is bit-identical to the reference
        two-``sum()`` formulation.
        """
        intervals = self._intervals
        k = len(intervals)
        if not k:
            return 0.0
        w = self.weights
        self.meter.charge(3 * k + 4)
        # average over closed intervals only; the weighted mean can land
        # 1 ULP outside [min, max] (e.g. three equal 1.9 intervals), so
        # clamp it back — same fix as percentile() in metrics.stats
        i_tot1 = 0.0
        mn1 = mx1 = intervals[0]
        for wi, ii in zip(w, intervals):
            i_tot1 += wi * ii
            if ii < mn1:
                mn1 = ii
            elif ii > mx1:
                mx1 = ii
        avg1 = min(max(i_tot1 / self._wsum[k], mn1), mx1)
        # average counting the open interval as most recent
        open_ = self.open_interval
        m = k if k < self.n - 1 else self.n - 1  # closed intervals included
        i_tot0 = w[0] * open_
        mn0 = mx0 = open_
        for i in range(m):
            ii = intervals[i]
            i_tot0 += w[i + 1] * ii
            if ii < mn0:
                mn0 = ii
            elif ii > mx0:
                mx0 = ii
        avg0 = min(max(i_tot0 / self._wsum[m + 1], mn0), mx0)
        return max(avg0, avg1)

    def loss_event_rate(self) -> float:
        """``p = 1 / average_interval`` (0.0 before any loss event)."""
        avg = self.average_interval()
        if avg <= 0:
            return 0.0
        return min(1.0, 1.0 / avg)

    @property
    def intervals(self) -> List[float]:
        """Closed intervals, most recent first (copy)."""
        return list(self._intervals)

    def _account_memory(self) -> None:
        self.meter.set_resident(8 * len(self._intervals) + 32)

    def __len__(self) -> int:
        return len(self._intervals)


class LossEventEstimator:
    """Receiver-side RFC 3448 loss machinery (detection + history).

    Feed every arriving data packet via :meth:`on_packet`; read the loss
    event rate via :meth:`loss_event_rate`.  The caller supplies the
    sender's RTT estimate (carried in TFRC data headers) used for
    loss-event clustering, and may supply ``first_interval_fn`` to
    compute the synthetic first interval of §6.3.1 from the pre-loss
    receive rate.

    Parameters
    ----------
    meter:
        Cost meter charged for the per-packet work (experiment T3).
    first_interval_fn:
        Called once, right after the first loss event, and expected to
        return the synthetic first interval in packets (or None to keep
        the raw packet count).
    max_gap:
        Safety bound on sequence gaps tracked per packet; beyond it the
        gap is treated as a restart rather than that many losses.
    """

    __slots__ = (
        "meter", "history", "first_interval_fn", "max_gap", "max_seq",
        "_pending", "_pending_count", "packets_received", "duplicates",
        "reordered_recoveries", "confirmed_losses", "_last_event_seq",
        "_last_event_time",
    )

    def __init__(
        self,
        meter: Optional[CostMeter] = None,
        first_interval_fn: Optional[Callable[[], Optional[float]]] = None,
        max_gap: int = 5000,
    ):
        self.meter = meter or NullMeter()
        self.history = LossIntervalHistory(meter=self.meter)
        self.first_interval_fn = first_interval_fn
        self.max_gap = max_gap
        self.max_seq = -1
        # presumed-lost sequence ranges as ``[start, end, reveal_time]``
        # half-open intervals, start-sorted and disjoint.  A gap of G
        # packets is one O(1) interval append (the seed code filled a
        # dict with G per-seq entries), and ripeness confirmation walks
        # the already-ordered list instead of sorting the pending set on
        # every arrival.  ``_pending_count`` tracks the total number of
        # presumed-lost sequence numbers across all intervals.
        self._pending: List[List[float]] = []
        self._pending_count = 0
        self.packets_received = 0
        self.duplicates = 0
        self.reordered_recoveries = 0
        self.confirmed_losses = 0
        self._last_event_seq: Optional[int] = None
        self._last_event_time = -1.0

    # ------------------------------------------------------------------
    def on_packet(self, seq: int, now: float, rtt: float) -> bool:
        """Record the arrival of data packet ``seq`` at time ``now``.

        ``rtt`` is the sender's RTT estimate from the packet header.
        Returns True when this arrival *started a new loss event*
        (receivers send immediate feedback in that case, §6.2).
        """
        self.meter.charge(5)
        self.packets_received += 1
        max_seq = self.max_seq
        if seq > max_seq:
            gap = seq - max_seq - 1
            if gap > self.max_gap:
                # treat as a restart: drop gap state rather than recording
                # thousands of losses from a pathological jump
                self._pending.clear()
                self._pending_count = 0
            elif gap > 0:
                self._pending.append([max_seq + 1, seq, now])
                self._pending_count += gap
                self.meter.charge(2 * gap)
            self.max_seq = seq
            if self.history.events:
                self.history.extend_open(1.0)
        else:
            # seq below the front: either a reordered recovery of a
            # presumed loss or a duplicate.  The interval list is
            # start-sorted, so the scan stops at the first interval
            # past seq (it rarely holds more than a couple of entries).
            hit = -1
            pending = self._pending
            for i, interval in enumerate(pending):
                if interval[0] > seq:
                    break
                if seq < interval[1]:
                    hit = i
                    break
            if hit < 0:
                self.duplicates += 1
                self.meter.charge(1)
                return False
            interval = pending[hit]
            start, end = interval[0], interval[1]
            if start == seq:
                if seq + 1 == end:
                    del pending[hit]
                else:
                    interval[0] = seq + 1
            elif end == seq + 1:
                interval[1] = seq
            else:  # split the interval around the recovered seq
                interval[1] = seq
                pending.insert(hit + 1, [seq + 1, end, interval[2]])
            self._pending_count -= 1
            self.reordered_recoveries += 1
            self.meter.charge(2)
        self._account_memory()
        return self._confirm_losses(rtt)

    def _confirm_losses(self, rtt: float) -> bool:
        """Promote presumed losses to confirmed ones (NDUPACK rule).

        Walks the start-sorted pending intervals from the front and
        consumes the ripe prefix (every seq with ``seq + NDUPACK <=
        max_seq``).  All seqs of one interval share a reveal time, so at
        most the first seq of each interval can start a loss event
        (after it fires, ``loss_time > loss_time + rtt`` is false for
        any ``rtt >= 0``) — the per-seq work of the reference loop
        collapses to O(1) per interval.
        """
        pending = self._pending
        if not pending:
            return False
        threshold = self.max_seq - NDUPACK
        new_event = False
        while pending:
            interval = pending[0]
            start = interval[0]
            if start > threshold:
                break
            end, loss_time = interval[1], interval[2]
            ripe_end = end if end <= threshold + 1 else threshold + 1
            count = ripe_end - start
            self.confirmed_losses += count
            # charged per confirmed seq (not one batched charge): the
            # meter's ops *and* activation counts model the per-packet
            # work of the seed cost model.  Confirmed losses are rare
            # relative to arrivals, so the loop costs nothing.
            for _ in range(count):
                self.meter.charge(4)
            if (
                self._last_event_seq is None
                or loss_time > self._last_event_time + rtt
            ):
                new_event = True
                self._start_event(start, loss_time)
            self._pending_count -= count
            if ripe_end == end:
                del pending[0]
            else:
                interval[0] = ripe_end
                break  # the rest of this interval (and all later) unripe
        self._account_memory()
        return new_event

    def _start_event(self, seq: int, loss_time: float) -> None:
        if self._last_event_seq is None:
            # first ever loss event: the "closed" interval is everything
            # received before it; optionally replaced by the synthetic
            # equation-derived interval of §6.3.1
            self.history.record_event(max(1, seq))
            if self.first_interval_fn is not None:
                synthetic = self.first_interval_fn()
                if synthetic is not None and synthetic > 0:
                    self.history.seed_first_interval(synthetic)
        else:
            self.history.record_event(max(1, seq - self._last_event_seq))
        # re-open the running interval at the current max_seq
        self.history.open_interval = float(max(0, self.max_seq - seq))
        self._last_event_seq = seq
        self._last_event_time = loss_time

    # ------------------------------------------------------------------
    def loss_event_rate(self) -> float:
        """Current loss event rate ``p`` (0.0 before any loss event)."""
        return self.history.loss_event_rate()

    @property
    def loss_events(self) -> int:
        """Number of loss events recorded."""
        return self.history.events

    def _account_memory(self) -> None:
        # loss-interval history + presumed-lost seqs + fixed bookkeeping.
        # Charged per presumed-lost *sequence number* (the seed model's
        # per-seq map), not per tracked interval: the meter models the
        # RFC 3448 receiver's asymptotic state, which the paper's T3
        # comparison depends on.
        self.meter.set_resident(
            8 * len(self.history) + 16 * self._pending_count + 64
        )
