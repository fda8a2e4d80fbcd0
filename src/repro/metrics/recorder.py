"""Per-flow delivery recording.

Receivers call :meth:`FlowRecorder.record` for every delivered data
packet; experiments then read goodput, throughput time series and
latency distributions from the recorder.

Delivery events arrive in simulation-time order, and the recorder
exploits that: times, sizes, latencies and the exact integer byte
prefix-sum live in flat :mod:`array` columns (``'d'`` doubles /
``'q'`` 64-bit ints) instead of per-packet tuples, so the hot
``record`` path appends scalars into contiguous buffers — no per-event
object allocation, a fraction of the memory — and :meth:`mean_rate`
answers any ``(start, end]`` window with two
:func:`bisect.bisect_right` calls over the time column plus one
prefix-sum difference; byte totals are integer sums, so the windowed
total is exactly equal to a scan's.  Out-of-order recording (only seen
from hand-built tests) is detected on append and falls back to the
scan path.  The historical ``events`` / ``latencies`` list views are
materialized on demand.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.metrics.stats import fold_sum
from repro.sim.packet import Packet


class FlowRecorder:
    """Accumulates delivery events ``(time, bytes, latency)`` of one flow."""

    __slots__ = (
        "name",
        "delivered_bytes",
        "delivered_packets",
        "first_time",
        "last_time",
        "_times",
        "_sizes",
        "_lats",
        "_cum_bytes",
        "_time_ordered",
    )

    def __init__(self, name: str = ""):
        self.name = name
        self.delivered_bytes = 0
        self.delivered_packets = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self._times = array("d")
        self._sizes = array("q")
        self._lats = array("d")
        self._cum_bytes = array("q", (0,))  # _cum_bytes[i] = bytes of events[:i]
        self._time_ordered = True

    def record(self, now: float, packet: Packet) -> None:
        """Record the delivery of ``packet`` at time ``now``."""
        size = packet.size
        self._times.append(now)
        self._sizes.append(size)
        self._lats.append(now - packet.created_at)
        self.delivered_bytes += size
        self.delivered_packets += 1
        if self.first_time is None:
            self.first_time = now
        elif now < self.last_time:  # type: ignore[operator]
            self._time_ordered = False
        self.last_time = now
        self._cum_bytes.append(self.delivered_bytes)

    def record_bytes(self, now: float, nbytes: int, latency: float = 0.0) -> None:
        """Record a raw delivery (used by app-level reassembly)."""
        self._times.append(now)
        self._sizes.append(nbytes)
        self._lats.append(latency)
        self.delivered_bytes += nbytes
        self.delivered_packets += 1
        if self.first_time is None:
            self.first_time = now
        elif now < self.last_time:  # type: ignore[operator]
            self._time_ordered = False
        self.last_time = now
        self._cum_bytes.append(self.delivered_bytes)

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Tuple[float, int]]:
        """``(time, bytes)`` per delivery — materialized view (O(n))."""
        return list(zip(self._times, self._sizes))

    @property
    def latencies(self) -> List[float]:
        """Per-delivery latency — materialized view (O(n))."""
        return list(self._lats)

    # ------------------------------------------------------------------
    def mean_rate(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean delivery rate in **bytes/s** over the window ``(start, end]``.

        The half-open window gives clean warmup semantics: an event at
        exactly ``start`` belongs to the warmup, not the measurement.
        ``end`` defaults to the last recorded event time.

        O(log n): two bisects over the time column plus one prefix-sum
        difference (events are byte-integers, so this is exactly the
        windowed sum).
        """
        times = self._times
        if not times:
            return 0.0
        if end is None:
            end = times[-1]
        duration = end - start
        if duration <= 0:
            return 0.0
        if self._time_ordered:
            lo = bisect_right(times, start)
            hi = bisect_right(times, end)
            total = self._cum_bytes[hi] - self._cum_bytes[lo]
        else:  # out-of-order recording: exact scan fallback
            total = fold_sum(
                size
                for t, size in zip(times, self._sizes)
                if start < t <= end
            )
        return total / duration

    def mean_rate_bps(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean delivery rate in bits/s (convenience)."""
        return 8.0 * self.mean_rate(start, end)

    def series(self, bin_width: float, end: Optional[float] = None) -> List[float]:
        """Throughput per ``bin_width`` bucket, in bytes/s.

        Returns one value per bucket from t=0 to ``end`` (default: last
        event).  Empty buckets yield 0.0.

        One pass over the event columns with a single multiply per
        event (``1 / bin_width`` is precomputed); the two boundary
        comparisons repair the rare half-ulp cases where the rounded
        multiply lands on the wrong side of a bucket edge, so bucketing
        matches ``floor(t / bin_width)`` against the representable bin
        edges ``k * bin_width``.
        """
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        if not math.isfinite(bin_width):
            raise ValueError("bin width must be finite")
        times = self._times
        if not times:
            return []
        if end is None:
            end = times[-1]
        n_bins = max(1, math.ceil(end / bin_width))
        bins = [0.0] * n_bins
        inv_width = 1.0 / bin_width
        for t, size in zip(times, self._sizes):
            idx = int(t * inv_width)
            if t < idx * bin_width:
                idx -= 1
            elif t >= (idx + 1) * bin_width:
                idx += 1
            if idx < n_bins:
                bins[idx] += size
        return [b / bin_width for b in bins]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowRecorder({self.name!r}, {self.delivered_packets} pkts, "
            f"{self.delivered_bytes} B)"
        )


def warmup_bins(warmup: float, bin_width: float) -> int:
    """How many leading :meth:`FlowRecorder.series` buckets ``warmup`` covers.

    ``floor(warmup / bin_width)``, except that a warm-up written as a
    multiple of the bin width skips every one of its buckets: the
    quotient of two decimals can round just below the integer
    (``0.6 / 0.2 == 2.9999999999999996``), and a plain floor would leak
    the last warm-up bucket into the steady-state series.
    """
    quotient = warmup / bin_width
    nearest = round(quotient)
    # aligned up to rounding: both operands and the division round once
    if abs(quotient - nearest) <= 2 * math.ulp(quotient):
        return nearest
    return int(quotient)
