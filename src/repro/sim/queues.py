"""Queue disciplines for links: DropTail, RED and RIO.

All queues implement the same small interface used by
:class:`repro.sim.link.Link`:

* ``enqueue(packet, now) -> bool`` — True if accepted, False if dropped;
* ``dequeue(now) -> Optional[Packet]``;
* ``__len__`` and ``byte_count``.

Every queue keeps drop/accept counters (overall and per
:class:`~repro.sim.packet.Color`), which the DiffServ experiments read.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Optional

from repro.sim.packet import Color, Packet


class QueueStats:
    """Counters shared by all queue disciplines.

    Per-color counters are flat lists indexed by the color's integer
    value (the seed's enum-keyed dict paid a hash per packet); the
    historical ``drops_by_color`` / ``accepts_by_color`` dict views are
    preserved as read-only properties for reports and tests.

    Accepting is once per packet per hop, so the in-tree disciplines
    apply :meth:`record_accept`'s three updates in place at the end of
    ``enqueue`` instead of calling it; drops are rare and go through
    :meth:`record_drop`.  Both index with ``color._value_`` — the plain
    member attribute behind ``Color.value``, whose descriptor is a
    Python-level call per access.
    """

    __slots__ = (
        "enqueued",
        "dequeued",
        "dropped",
        "enqueued_bytes",
        "dropped_bytes",
        "_drops_by_color",
        "_accepts_by_color",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.enqueued_bytes = 0
        self.dropped_bytes = 0
        self._drops_by_color = [0] * len(Color)
        self._accepts_by_color = [0] * len(Color)

    def record_accept(self, packet: Packet) -> None:
        self.enqueued += 1
        self.enqueued_bytes += packet.size
        self._accepts_by_color[packet.color._value_] += 1

    def record_drop(self, packet: Packet) -> None:
        self.dropped += 1
        self.dropped_bytes += packet.size
        self._drops_by_color[packet.color._value_] += 1

    @property
    def drops_by_color(self) -> Dict[Color, int]:
        """Per-precedence drop counts (read-only snapshot)."""
        return {c: self._drops_by_color[c.value] for c in Color}

    @property
    def accepts_by_color(self) -> Dict[Color, int]:
        """Per-precedence accept counts (read-only snapshot)."""
        return {c: self._accepts_by_color[c.value] for c in Color}

    @property
    def offered(self) -> int:
        """Packets offered to the queue (accepted + dropped)."""
        return self.enqueued + self.dropped

    def drop_ratio(self) -> float:
        """Fraction of offered packets dropped; 0.0 when nothing offered."""
        if self.offered == 0:
            return 0.0
        return self.dropped / self.offered

    def color_drop_ratio(self, color: Color) -> float:
        """Fraction of offered ``color`` packets dropped; 0.0 when none.

        The per-precedence ratio every DiffServ experiment reports
        (green = in-profile protection, the AF assurance's core metric).
        """
        index = color.value
        offered = self._accepts_by_color[index] + self._drops_by_color[index]
        return self._drops_by_color[index] / offered if offered else 0.0


class DropTailQueue:
    """FIFO queue with a packet-count and/or byte capacity.

    Parameters
    ----------
    capacity_packets:
        Maximum number of queued packets (``None`` = unlimited).
    capacity_bytes:
        Maximum queued bytes (``None`` = unlimited).
    """

    def __init__(
        self,
        capacity_packets: Optional[int] = 100,
        capacity_bytes: Optional[int] = None,
    ):
        if capacity_packets is None and capacity_bytes is None:
            raise ValueError("queue must bound packets or bytes")
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self._items: Deque[Packet] = deque()
        self._bytes = 0
        self.fluid_pkts = 0  # virtual backlog (repro.fluid), 0 = none
        self.stats = QueueStats()

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Accept or tail-drop ``packet``.

        The admission test and the accept counters are inlined (no
        helper call) — this runs once per packet per access link, so
        an extra call frame shows up in the T1 profile.  ``fluid_pkts``
        is the virtual occupancy a
        :class:`repro.fluid.source.FluidSource` maintains; it stays
        ``0`` unless a background spec is compiled, in which case the
        fluid backlog competes for buffer space exactly like queued
        packets (adding 0 keeps the arithmetic bit-identical).
        """
        if (
            self.capacity_packets is not None
            and len(self._items) + self.fluid_pkts >= self.capacity_packets
        ) or (
            self.capacity_bytes is not None
            and self._bytes + packet.size > self.capacity_bytes
        ):
            self.stats.record_drop(packet)
            return False
        size = packet.size
        self._items.append(packet)
        self._bytes += size
        stats = self.stats  # record_accept(), in place
        stats.enqueued += 1
        stats.enqueued_bytes += size
        stats._accepts_by_color[packet.color._value_] += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        """Pop the head-of-line packet, or None when empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self._bytes -= packet.size
        self.stats.dequeued += 1
        return packet

    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_count(self) -> int:
        """Bytes currently queued."""
        return self._bytes


class RedQueue:
    """Random Early Detection (Floyd & Jacobson 1993 / RFC 2309 defaults).

    The average queue length is an EWMA updated on every arrival; during
    idle periods it decays as if small packets had been draining at line
    rate.  Between ``min_th`` and ``max_th`` packets are dropped with a
    probability that rises linearly to ``max_p`` (with the standard
    ``count`` correction that spreads drops uniformly); above ``max_th``
    every arrival is dropped.

    Parameters
    ----------
    min_th, max_th:
        Thresholds in packets.
    max_p:
        Drop probability at ``max_th``.
    weight:
        EWMA weight ``w_q``.
    capacity_packets:
        Hard tail-drop limit.
    rng:
        Random stream for drop decisions (injected by the link for
        determinism).
    mean_pkt_time:
        Estimated transmission time of an average packet, used to decay
        the average during idle periods.
    """

    def __init__(
        self,
        min_th: float = 5,
        max_th: float = 15,
        max_p: float = 0.1,
        weight: float = 0.002,
        capacity_packets: int = 60,
        rng: Optional[random.Random] = None,
        mean_pkt_time: float = 0.001,
    ):
        if not 0 < min_th < max_th:
            raise ValueError("need 0 < min_th < max_th")
        self.min_th = float(min_th)
        self.max_th = float(max_th)
        self.max_p = float(max_p)
        self.weight = float(weight)
        self.capacity_packets = capacity_packets
        self.mean_pkt_time = mean_pkt_time
        self._rng = rng or random.Random(0xDECAF)
        self._items: Deque[Packet] = deque()
        self._bytes = 0
        self.fluid_pkts = 0  # virtual backlog (repro.fluid), 0 = none
        self.avg = 0.0
        self._count = -1  # packets since last drop, RED "count" variable
        self._idle_since: Optional[float] = 0.0
        self.stats = QueueStats()

    # -- queue interface ---------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        """RED admission: early-drop probabilistically, tail-drop at capacity.

        One frame per arrival: the average update, the drop curve, the
        count-corrected coin flip and the accept counters
        (:class:`QueueStats`) are all computed here, in that order,
        with at most one RNG draw — this runs once per packet per
        bottleneck hop, where every helper call is measurable, and the
        arithmetic and draw order are pinned by the goldens.
        ``fluid_pkts`` (virtual background occupancy,
        :mod:`repro.fluid`) rides on the physical length so average,
        curve and tail-drop all see the aggregate; adding 0 keeps the
        arithmetic bit-identical without background.
        """
        q = len(self._items) + self.fluid_pkts
        weight = self.weight
        if q == 0 and self._idle_since is not None:
            # decay over the idle period
            m = max(0.0, (now - self._idle_since) / self.mean_pkt_time)
            self.avg *= (1.0 - weight) ** m
            self._idle_since = now
        else:
            self.avg += weight * (q - self.avg)
        avg = self.avg
        if avg < self.min_th:
            p_b = 0.0
        elif avg >= self.max_th:
            p_b = 1.0
        else:
            p_b = self.max_p * (avg - self.min_th) / (self.max_th - self.min_th)
        drop = True
        if q >= self.capacity_packets:
            pass  # tail drop; the RED count state is not touched
        elif p_b <= 0.0:
            self._count = -1
            drop = False
        elif p_b >= 1.0:
            self._count = 0
        else:
            count = self._count + 1
            denom = 1.0 - count * p_b
            p_a = p_b / denom if denom > 0 else 1.0
            if self._rng.random() < p_a:
                count = 0
            else:
                drop = False
            self._count = count
        if drop:
            self.stats.record_drop(packet)
            return False
        size = packet.size
        self._items.append(packet)
        self._bytes += size
        self._idle_since = None
        stats = self.stats  # record_accept(), in place
        stats.enqueued += 1
        stats.enqueued_bytes += size
        stats._accepts_by_color[packet.color._value_] += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._items:
            return None
        packet = self._items.popleft()
        self._bytes -= packet.size
        self.stats.dequeued += 1
        if not self._items and not self.fluid_pkts:
            self._idle_since = now
        return packet

    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_count(self) -> int:
        return self._bytes


class RioQueue:
    """RIO — RED with In/Out drop-precedence coupling (Clark & Fang 1998).

    The AF PHB substrate of the paper's §4: in-profile (``GREEN``)
    packets see a RED curve driven by the *in-profile* average queue
    only, with generous thresholds; out-of-profile (``YELLOW``/``RED``)
    packets see an aggressive curve driven by the *total* average.
    Under congestion, out-profile traffic is therefore dropped first,
    which is exactly the protection gTFRC's guaranteed rate relies on.

    Parameters mirror :class:`RedQueue`, once per precedence level.
    """

    def __init__(
        self,
        in_min_th: float = 40,
        in_max_th: float = 70,
        in_max_p: float = 0.02,
        out_min_th: float = 10,
        out_max_th: float = 30,
        out_max_p: float = 0.10,
        weight: float = 0.002,
        capacity_packets: int = 100,
        rng: Optional[random.Random] = None,
        mean_pkt_time: float = 0.001,
    ):
        self.in_min_th, self.in_max_th, self.in_max_p = in_min_th, in_max_th, in_max_p
        self.out_min_th, self.out_max_th, self.out_max_p = (
            out_min_th,
            out_max_th,
            out_max_p,
        )
        self.weight = weight
        self.capacity_packets = capacity_packets
        self.mean_pkt_time = mean_pkt_time
        self._rng = rng or random.Random(0x510)
        self._items: Deque[Packet] = deque()
        self._bytes = 0
        self.fluid_pkts = 0  # virtual backlog (repro.fluid), 0 = none
        self._in_count_q = 0  # in-profile packets currently queued
        self.avg_in = 0.0
        self.avg_total = 0.0
        self._count_in = -1
        self._count_out = -1
        self._idle_since: Optional[float] = 0.0
        self.stats = QueueStats()

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Admit with the precedence-appropriate RED curve.

        One frame per arrival: average update, curve, count-corrected
        coin flip and the accept counters (:class:`QueueStats`) are
        all computed here, in that order, with at most one RNG draw —
        this runs once per packet per bottleneck hop in every AF
        experiment, where every helper call is a measurable share of
        the T1 profile; arithmetic and draw order are pinned by the
        goldens.

        ``fluid_pkts`` (virtual background occupancy,
        :mod:`repro.fluid`) joins the *total* queue length only:
        aggregate background is out-of-profile cross traffic, so it
        inflates ``avg_total`` (the aggressive out-curve) and the
        tail-drop test while ``avg_in`` — the in-profile GREEN
        protection the AF assurance rests on — stays driven purely by
        physically queued in-profile packets.  Adding 0 keeps the
        arithmetic bit-identical when no background is compiled.
        """
        in_profile = packet.color is Color.GREEN
        q_total = len(self._items) + self.fluid_pkts
        weight = self.weight
        # -- averages: idle decay or per-precedence EWMA
        if q_total == 0 and self._idle_since is not None:
            m = max(0.0, (now - self._idle_since) / self.mean_pkt_time)
            decay = (1.0 - weight) ** m
            self.avg_in *= decay
            self.avg_total *= decay
            self._idle_since = now
        else:
            self.avg_total += weight * (q_total - self.avg_total)
            if in_profile:
                self.avg_in += weight * (self._in_count_q - self.avg_in)
        # -- drop curve for this packet's precedence
        if in_profile:
            avg, min_th, max_th, max_p = (
                self.avg_in, self.in_min_th, self.in_max_th, self.in_max_p
            )
        else:
            avg, min_th, max_th, max_p = (
                self.avg_total, self.out_min_th, self.out_max_th, self.out_max_p
            )
        if avg < min_th:
            p_b = 0.0
        elif avg >= max_th:
            p_b = 1.0
        else:
            p_b = max_p * (avg - min_th) / (max_th - min_th)
        # -- admission (tail drop leaves the RED count state untouched)
        drop = True
        if q_total >= self.capacity_packets:
            pass
        elif p_b <= 0.0:
            drop = False
            if in_profile:
                self._count_in = -1
            else:
                self._count_out = -1
        elif p_b >= 1.0:
            if in_profile:
                self._count_in = 0
            else:
                self._count_out = 0
        else:
            count = (self._count_in if in_profile else self._count_out) + 1
            denom = 1.0 - count * p_b
            p_a = p_b / denom if denom > 0 else 1.0
            if self._rng.random() < p_a:
                count = 0
            else:
                drop = False
            if in_profile:
                self._count_in = count
            else:
                self._count_out = count
        if drop:
            self.stats.record_drop(packet)
            return False
        size = packet.size
        self._items.append(packet)
        self._bytes += size
        if in_profile:
            self._in_count_q += 1
        self._idle_since = None
        stats = self.stats  # record_accept(), in place
        stats.enqueued += 1
        stats.enqueued_bytes += size
        stats._accepts_by_color[packet.color._value_] += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        items = self._items
        if not items:
            return None
        packet = items.popleft()
        self._bytes -= packet.size
        if packet.color is Color.GREEN:
            self._in_count_q -= 1
        self.stats.dequeued += 1
        if not items and not self.fluid_pkts:
            self._idle_since = now
        return packet

    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_count(self) -> int:
        return self._bytes
