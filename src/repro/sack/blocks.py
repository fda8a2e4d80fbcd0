"""Receiver-side SACK state (RFC 2018).

Tracks the cumulative acknowledgment and the set of sequence ranges
received beyond it, as disjoint half-open intervals ``[start, end)``.
Per-packet work is a binary search plus neighbour merge — O(log k) in
the number of holes — which is what makes the QTPlight receiver cheap
compared with the RFC 3448 loss-event machinery.

Block reporting follows RFC 2018 §4: the first block contains the most
recently received segment, later blocks repeat the most recently
reported other ranges.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

from repro.metrics.cost import CostMeter, NullMeter


class ReceiverSackState:
    """Cumulative ack plus out-of-order ranges for one flow.

    Parameters
    ----------
    meter:
        Cost meter charged for per-packet work (experiment T3).
    """

    __slots__ = (
        "meter", "cum_ack", "_starts", "_ends", "_recency", "_touch",
        "received", "duplicates", "received_bytes", "max_seq",
    )

    def __init__(self, meter: Optional[CostMeter] = None):
        self.meter = meter or NullMeter()
        self.cum_ack = -1  # highest seq with everything before it received
        self._starts: List[int] = []  # parallel sorted interval arrays
        self._ends: List[int] = []
        self._recency: List[int] = []  # touch counter per interval
        self._touch = 0
        self.received = 0
        self.duplicates = 0
        self.received_bytes = 0
        self.max_seq = -1

    # ------------------------------------------------------------------
    def record(self, seq: int, size: int = 0) -> bool:
        """Record arrival of ``seq``; returns False for duplicates."""
        self.meter.charge(3)
        self._touch += 1
        if seq > self.max_seq:
            self.max_seq = seq
        if seq <= self.cum_ack:
            self.duplicates += 1
            return False
        if seq == self.cum_ack + 1:
            self.cum_ack = seq
            self.received += 1
            self.received_bytes += size
            self._absorb_from_front()
            self._account_memory()
            return True
        inserted = self._insert(seq)
        if not inserted:
            self.duplicates += 1
            return False
        self.received += 1
        self.received_bytes += size
        self._account_memory()
        return True

    def _absorb_from_front(self) -> None:
        """Advance cum_ack through any interval now contiguous with it."""
        while self._starts and self._starts[0] == self.cum_ack + 1:
            self.cum_ack = self._ends[0] - 1
            del self._starts[0]
            del self._ends[0]
            del self._recency[0]
            self.meter.charge(2)

    def _insert(self, seq: int) -> bool:
        """Insert ``seq`` into the interval set; False if already present."""
        idx = bisect.bisect_right(self._starts, seq) - 1
        self.meter.charge(2)
        if idx >= 0 and self._starts[idx] <= seq < self._ends[idx]:
            return False  # duplicate inside an existing interval
        # can we extend the interval on the left?
        extends_left = idx >= 0 and self._ends[idx] == seq
        # or the one on the right?
        right = idx + 1
        extends_right = right < len(self._starts) and self._starts[right] == seq + 1
        if extends_left and extends_right:
            # bridging two intervals: merge them
            self._ends[idx] = self._ends[right]
            self._recency[idx] = self._touch
            del self._starts[right]
            del self._ends[right]
            del self._recency[right]
        elif extends_left:
            self._ends[idx] = seq + 1
            self._recency[idx] = self._touch
        elif extends_right:
            self._starts[right] = seq
            self._recency[right] = self._touch
        else:
            self._starts.insert(right, seq)
            self._ends.insert(right, seq + 1)
            self._recency.insert(right, self._touch)
        return True

    # ------------------------------------------------------------------
    def advance_floor(self, floor: int) -> None:
        """Advance the cumulative ack past holes below ``floor``.

        Used with the sender's forward-ack point (PR-SCTP style): every
        missing sequence number below ``floor`` is guaranteed never to
        arrive, so waiting for it is pointless.  Intervals at or below
        the new cumulative ack are dropped; one straddling it is
        absorbed.
        """
        if floor - 1 <= self.cum_ack:
            return
        self.meter.charge(2)
        self.cum_ack = floor - 1
        while self._starts and self._starts[0] <= self.cum_ack + 1:
            if self._ends[0] - 1 > self.cum_ack:
                self.cum_ack = self._ends[0] - 1
            del self._starts[0]
            del self._ends[0]
            del self._recency[0]
            self.meter.charge(2)
        self._account_memory()

    def blocks(self, limit: int = 3) -> Tuple[Tuple[int, int], ...]:
        """Report up to ``limit`` SACK blocks, most recently updated first."""
        if not self._starts or limit < 1:
            return ()
        self.meter.charge(len(self._starts) + 1)
        order = sorted(
            range(len(self._starts)), key=lambda i: self._recency[i], reverse=True
        )
        chosen = order[:limit]
        return tuple((self._starts[i], self._ends[i]) for i in chosen)

    def holes(self) -> List[Tuple[int, int]]:
        """Missing ranges between cum_ack and max_seq (diagnostics)."""
        result: List[Tuple[int, int]] = []
        prev_end = self.cum_ack + 1
        for start, end in zip(self._starts, self._ends):
            if start > prev_end:
                result.append((prev_end, start))
            prev_end = end
        if self.max_seq >= prev_end:
            result.append((prev_end, self.max_seq + 1))
        return result

    @property
    def interval_count(self) -> int:
        """Number of disjoint out-of-order ranges held."""
        return len(self._starts)

    def _account_memory(self) -> None:
        self.meter.set_resident(24 * len(self._starts) + 40)
