"""Store-and-forward link model.

A :class:`Link` is unidirectional.  Packets offered by the upstream node
pass through an optional *marker* (DiffServ edge conditioning), are
admitted by the queue discipline, serialized at the link rate, subjected
to an optional *channel* (loss/jitter emulation, :mod:`repro.netem`) and
delivered to the downstream node after the propagation delay.

Duplex connectivity is two independent ``Link`` objects (see
:class:`repro.sim.topology.Network`).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Protocol, TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketPool
from repro.sim.queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import Node


class Channel(Protocol):
    """Impairment applied after serialization (see :mod:`repro.netem`).

    ``transit(packet, now)`` returns the extra delay to add to the
    propagation delay, or ``None`` when the packet is lost.
    """

    def transit(self, packet: Packet, now: float) -> Optional[float]: ...


class Marker(Protocol):
    """Edge conditioner applied before queueing (see :mod:`repro.qos`)."""

    def mark(self, packet: Packet, now: float) -> None: ...


class LinkStats:
    """Transmission-side counters of a link."""

    __slots__ = ("tx_packets", "tx_bytes", "delivered_packets", "channel_losses")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.delivered_packets = 0
        self.channel_losses = 0

    def utilization(self, rate_bps: float, duration: float) -> float:
        """Fraction of capacity used over ``duration`` seconds.

        Degenerate windows (``duration <= 0``) and non-positive rates
        report 0.0 instead of dividing by zero — callers summarize
        warmup-clipped windows that can collapse to empty.
        """
        if duration <= 0 or rate_bps <= 0:
            return 0.0
        return min(1.0, self.tx_bytes * 8 / (rate_bps * duration))


class Link:
    """Unidirectional link with rate, delay, queue, marker and channel.

    Parameters
    ----------
    sim: simulator the link schedules on.
    src, dst: endpoint nodes.  The link registers itself as
        ``src.links[dst.name]``.
    rate_bps: line rate in bits/s.
    delay: one-way propagation delay in seconds.
    queue: queue discipline (default: 100-packet DropTail).
    channel: optional loss/jitter model applied post-serialization.
    marker: optional DiffServ conditioner applied pre-queueing.
    """

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        rate_bps: float,
        delay: float,
        queue=None,
        channel: Optional[Channel] = None,
        marker: Optional[Marker] = None,
        name: Optional[str] = None,
    ):
        label = name or f"{src.name}->{dst.name}"
        if not (math.isfinite(rate_bps) and rate_bps > 0):
            raise ValueError(
                f"link {label}: rate must be positive and finite (got {rate_bps!r})"
            )
        if not (math.isfinite(delay) and delay >= 0):
            raise ValueError(
                f"link {label}: delay must be non-negative and finite "
                f"(got {delay!r})"
            )
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue()
        self.channel = channel
        self.marker = marker
        self.name = label
        self.stats = LinkStats()
        self._busy = False
        self.on_drop: Optional[Callable[[Packet], None]] = None
        self._pool = PacketPool.of(sim)
        src.links[dst.name] = self
        # observability: register for end-of-run queue-stat harvesting.
        # _obs_links is None unless the metrics plane was enabled when
        # the simulator was constructed — one attribute check at link
        # construction, nothing on the packet path.
        obs_links = getattr(sim, "_obs_links", None)
        if obs_links is not None:
            obs_links.append(self)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link.  Returns False if queue-dropped.

        Hot path: one call per packet per hop.  ``sim.now`` is read
        once (marking and enqueueing happen at the same instant) and no
        packet copies are made — the same object rides the link end to
        end.  A queue drop is a terminal sink: pool-managed packets are
        recycled (after any ``on_drop`` observer ran).

        ``send``, ``_finish_transmission`` and ``_deliver`` are the
        link's only entry points, and each is looked up through
        ``self`` whenever it is called or scheduled:
        :class:`repro.sim.trace.PacketTracer` wraps exactly these three
        per instance.  ``rate_bps`` is read per packet because a fluid
        background source rewrites it every epoch.
        """
        now = self.sim.now
        if self.marker is not None:
            self.marker.mark(packet, now)
        if not self.queue.enqueue(packet, now):
            if self.on_drop is not None:
                self.on_drop(packet)
            if self._pool is not None:
                self._pool.release(packet)
            return False
        if not self._busy:
            # idle wire: serialize the head of the queue right away
            # (head.size * 8 == head.bits, without the property call)
            head = self.queue.dequeue(now)
            if head is not None:
                self._busy = True
                self.sim.schedule_pooled(
                    head.size * 8 / self.rate_bps, self._finish_transmission, head
                )
        return True

    def _finish_transmission(self, packet: Packet) -> None:
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += packet.size
        sim = self.sim
        channel = self.channel
        if channel is None:
            sim.schedule_pooled(self.delay, self._deliver, packet)
        else:
            extra = channel.transit(packet, sim.now)
            if extra is not None:
                sim.schedule_pooled(self.delay + extra, self._deliver, packet)
            else:
                stats.channel_losses += 1
                if self._pool is not None:
                    # channel loss is terminal; the tracer's loss record
                    # (which runs after this returns) only reads fields,
                    # and nothing can re-acquire the object before then
                    self._pool.release(packet)
        # pipeline the next packet regardless of the fate of this one
        head = self.queue.dequeue(sim.now)
        if head is None:
            self._busy = False
        else:
            sim.schedule_pooled(
                head.size * 8 / self.rate_bps, self._finish_transmission, head
            )

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered_packets += 1
        self.dst.receive(packet)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    def serialization_time(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire."""
        return size_bytes * 8 / self.rate_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.rate_bps / 1e6:.2f} Mbit/s, "
            f"{self.delay * 1e3:.1f} ms, qlen={len(self.queue)})"
        )
