"""Packet model, protocol headers and the per-simulator packet pool.

A :class:`Packet` is the unit handled by links, queues and agents.  It
carries addressing (source/destination node names plus a flow id used
for endpoint demultiplexing), a size in bytes, a DiffServ ``color`` and
one typed protocol header.

Headers are plain dataclasses — one per protocol message type — so that
agents can dispatch on ``type(packet.header)`` and tests can construct
messages directly.

Allocation-free fast path (PR 4): every simulated packet used to cost a
fresh ``Packet`` plus a fresh header dataclass.  :class:`PacketPool` is
a per-simulator free list that recycles both together: transport
senders *acquire* a recycled ``(Packet, header)`` pair of the right
header class (falling back to normal construction on a miss), and the
audited terminal sinks — receiver consumption, queue drops, channel
losses — *release* it back.  See the class docstring for the exact
re-init and safety semantics; ``REPRO_NO_POOL=1`` disables pooling
entirely (bit-identical results either way — the goldens prove it).
"""

from __future__ import annotations

import enum
import itertools
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple


class Color(enum.Enum):
    """DiffServ drop-precedence color assigned by edge markers.

    ``GREEN`` is in-profile (protected by the AF assurance), ``YELLOW``
    and ``RED`` are increasingly out-of-profile.  Unmarked best-effort
    traffic is treated as ``RED`` by RIO queues configured for AF.
    """

    GREEN = 0
    YELLOW = 1
    RED = 2


class PacketKind(enum.Enum):
    """Coarse traffic class of a packet, used by traces and queues."""

    DATA = 0
    ACK = 1
    FEEDBACK = 2
    CONTROL = 3


#: Module-level uid source.  ``_next_uid`` is the counter's bound
#: ``__next__`` — called directly as the dataclass default factory, it
#: skips the lambda frame the seed code paid on every packet.
_uid_counter = itertools.count(1)
_next_uid = _uid_counter.__next__


# ----------------------------------------------------------------------
# protocol headers
# ----------------------------------------------------------------------
@dataclass(slots=True)
class TfrcDataHeader:
    """TFRC data packet header (RFC 3448 §3.1).

    Attributes
    ----------
    seq: sender packet sequence number.
    timestamp: send time, echoed back for RTT measurement.
    rtt_estimate: sender's current RTT estimate, used by the receiver to
        cluster losses into loss events.
    forward_ack: PR-SCTP-style forward cumulative-ack point — every
        sequence number below it is either delivered or *abandoned* by
        the sender's reliability policy and will never be
        (re)transmitted, so the receiver may advance its cumulative ack
        past those holes.
    """

    seq: int
    timestamp: float
    rtt_estimate: float
    forward_ack: int = 0


@dataclass(slots=True)
class TfrcFeedbackHeader:
    """Standard TFRC receiver report (RFC 3448 §3.2).

    Attributes
    ----------
    timestamp_echo: timestamp of the most recent data packet.
    elapsed: time between receiving that packet and sending this report.
    x_recv: receive rate (bytes/s — transport-layer rates are bytes/s
        throughout this package; link rates are bits/s).
    p: receiver-computed loss event rate.
    last_seq: highest sequence number seen (diagnostic).
    """

    timestamp_echo: float
    elapsed: float
    x_recv: float
    p: float
    last_seq: int


@dataclass(slots=True)
class SackFeedbackHeader:
    """SACK-bearing receiver report (RFC 2018 block rules).

    Used by both paper instances.  A QTPlight receiver does *no*
    loss-rate computation: it reports the cumulative ack, up to N SACK
    blocks (``[start, end)`` ranges received above the cumulative ack)
    and the raw ingredients (``recv_bytes``, timestamps) the sender
    needs to run RFC 3448 estimation itself; ``p`` stays ``None``.  A
    QTPAF receiver additionally fills ``p`` and ``x_recv`` with the
    receiver-side RFC 3448 estimates.
    """

    cum_ack: int
    blocks: Tuple[Tuple[int, int], ...]
    timestamp_echo: float
    elapsed: float
    recv_bytes: int
    last_seq: int
    interval: float = 0.0  # receiver-measured time since previous report
    p: Optional[float] = None
    x_recv: Optional[float] = None


@dataclass(slots=True)
class TcpSegmentHeader:
    """TCP segment header (data and/or ack).

    ``seq`` is a byte offset; ``payload`` the number of payload bytes.
    ``ack`` is cumulative; ``sack_blocks`` optional RFC 2018 blocks.
    """

    seq: int
    payload: int
    ack: int = -1
    syn: bool = False
    fin: bool = False
    sack_blocks: Tuple[Tuple[int, int], ...] = ()
    timestamp: float = 0.0
    timestamp_echo: float = 0.0


@dataclass(slots=True)
class NegotiationHeader:
    """Versatile-transport capability negotiation message (§1 of the paper).

    ``offer`` carries a serialized capability set (dict) during connection
    setup; ``accepted`` the chosen profile on the way back.
    """

    phase: str  # "offer" | "accept" | "reject"
    payload: dict


@dataclass(slots=True)
class AppDataHeader:
    """Opaque application payload rider for reliability/delivery tests.

    Attributes
    ----------
    app_seq: application-level message number.
    frame_type: e.g. "I", "P", "B" for media sources; "" for bulk data.
    deadline: absolute playout deadline (partial-reliability policies),
        ``None`` when the message has no deadline.
    """

    app_seq: int = -1
    frame_type: str = ""
    deadline: Optional[float] = None


# ----------------------------------------------------------------------
# packet
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Packet:
    """A simulated packet.

    Attributes
    ----------
    src, dst: node names of the endpoints.
    flow_id: endpoint demultiplexing key; both directions of one
        connection share it.
    size: total size in bytes (headers included) — what links serialize.
    kind: coarse class for traces and schedulers.
    header: typed protocol header (one of the dataclasses above).
    color: DiffServ drop precedence, set by edge markers.
    created_at: simulation time of creation at the sender.
    app: optional application rider (:class:`AppDataHeader`).
    """

    src: str
    dst: str
    flow_id: str
    size: int
    kind: PacketKind = PacketKind.DATA
    header: object = None
    color: Color = Color.RED
    created_at: float = 0.0
    app: Optional[AppDataHeader] = None
    uid: int = field(default_factory=_next_uid)
    hops: int = 0
    #: True only while the packet's lifecycle is managed by a
    #: :class:`PacketPool` (set by ``acquire`` / by the pooled sender on
    #: a miss, cleared by ``release``).  Hand-built packets stay False
    #: and are therefore never recycled, so tests and apps may hold on
    #: to them freely.
    pooled: bool = field(default=False, repr=False, compare=False)

    def reply_to(self) -> Tuple[str, str]:
        """Return ``(src, dst)`` for a packet answering this one."""
        return self.dst, self.src

    def retain(self) -> "Packet":
        """Claim this packet for the application; returns self.

        Detaches the packet from pool management (clears ``pooled``),
        so the receiver's release at the terminal sink becomes a no-op
        and the object is never recycled.  An ``on_deliver`` callback
        that keeps the packet (or its header/app rider) past its own
        return MUST call this; callbacks that only read fields need
        not, and the packet is recycled as usual.  Idempotent, and
        harmless on never-pooled packets.
        """
        self.pooled = False
        return self

    def copy(self, **changes) -> "Packet":
        """Shallow copy with a fresh uid and optional field overrides.

        Not used on the forwarding fast path: links, queues and nodes
        pass the *same* ``Packet`` object end to end (one allocation per
        transmission), so copies are reserved for genuine duplication
        (retransmission buffers, tests).
        """
        changes.setdefault("uid", _next_uid())
        # a copy is a new, unmanaged object: whoever made it may keep
        # it, so it must never be recycled on the original's behalf
        changes.setdefault("pooled", False)
        return replace(self, **changes)

    @property
    def bits(self) -> int:
        """Size in bits, as serialized by links."""
        return self.size * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.uid} {self.src}->{self.dst} flow={self.flow_id} "
            f"{self.kind.name} {self.size}B {self.color.name})"
        )


# ----------------------------------------------------------------------
# packet pool
# ----------------------------------------------------------------------
#: Environment kill-switch: set ``REPRO_NO_POOL=1`` to disable packet
#: pooling for debugging (e.g. to rule the pool out when bisecting a
#: behaviour change).  Read when a pool is first attached to a
#: simulator, so tests can monkeypatch it per-``Simulator``.
NO_POOL_ENV = "REPRO_NO_POOL"


def pooling_enabled() -> bool:
    """False when :data:`NO_POOL_ENV` disables the packet pool."""
    return os.environ.get(NO_POOL_ENV, "").strip() in ("", "0")


class PacketPool:
    """Per-simulator free list recycling ``Packet`` + header pairs.

    **Re-init semantics.**  ``acquire(header_cls, ...)`` pops a recycled
    packet whose header is an instance of ``header_cls`` and re-writes
    *every* ``Packet`` field: addressing, size, kind, color (back to the
    construction default ``Color.RED`` unless overridden — edge markers
    re-color each transmission), ``created_at``, ``app``, ``hops = 0``
    and a **fresh uid** drawn from the same module counter that
    ``Packet()`` construction uses.  One logical packet therefore draws
    exactly one uid whether it was constructed or recycled — uid
    sequences, and with them every trace and golden fingerprint, are
    bit-identical with pooling on or off.  The *header* fields are left
    stale: the caller re-fills them in place (they differ per header
    class, and the type-keyed free lists guarantee the class matches).
    **Adding a field to a pooled header class therefore requires
    updating every acquire site that refills that class** (grep for
    ``pool.acquire``); the guard against a missed refill is the
    pool-off equivalence test (``REPRO_NO_POOL=1`` must reproduce the
    goldens bit-for-bit — a leaked stale field changes results and
    trips it).

    **Safety contract.**  Only packets flagged ``pooled=True`` are ever
    recycled; ``release`` is a no-op for anything else and clears the
    flag (double release is harmless).  The flag is a promise made at
    the acquire site: *nothing retains this packet or its header object
    past its terminal sink*.  The audited sinks that release are
    receiver data/feedback consumption, queue drops and channel
    losses.  Receivers with an ``on_deliver`` app callback invoke the
    callback first and release afterwards: a callback that keeps the
    packet past its return must opt out of recycling by calling
    :meth:`Packet.retain`, which turns that release into a no-op.
    Components that legitimately retain packets — the reordering
    :class:`~repro.reliability.delivery.DeliveryBuffer` — release only
    when they finally hand the packet over.

    Use :meth:`PacketPool.of` to get the simulator's pool (``None``
    when :data:`NO_POOL_ENV` disabled pooling at attach time).
    """

    __slots__ = ("_free", "max_free", "hits", "misses", "recycled")

    #: Free-list bound per header class; in-flight windows are far
    #: smaller, so this only caps pathological release storms.
    MAX_FREE = 256

    def __init__(self, max_free: int = MAX_FREE):
        self._free: Dict[type, List[Packet]] = {}
        self.max_free = max_free
        self.hits = 0
        self.misses = 0
        self.recycled = 0

    @classmethod
    def of(cls, sim) -> Optional["PacketPool"]:
        """The simulator's pool, created lazily; None when disabled.

        The kill-switch is sampled once per simulator (at first
        attach), so a single run is internally consistent even if the
        environment changes mid-process.
        """
        pool = getattr(sim, "_packet_pool", False)
        if pool is False:
            pool = cls() if pooling_enabled() else None
            sim._packet_pool = pool
        return pool

    def acquire(
        self,
        header_cls: type,
        src: str,
        dst: str,
        flow_id: str,
        size: int,
        kind: PacketKind,
        created_at: float,
        color: Color = Color.RED,
        app: Optional[AppDataHeader] = None,
    ) -> Optional[Packet]:
        """Pop and re-init a recycled packet, or None (caller constructs).

        The returned packet's ``header`` is a stale ``header_cls``
        instance the caller must re-fill in place.
        """
        free = self._free.get(header_cls)
        if not free:
            self.misses += 1
            return None
        self.hits += 1
        p = free.pop()
        p.src = src
        p.dst = dst
        p.flow_id = flow_id
        p.size = size
        p.kind = kind
        p.color = color
        p.created_at = created_at
        p.app = app
        p.uid = _next_uid()
        p.hops = 0
        p.pooled = True
        return p

    def release(self, packet: Packet) -> None:
        """Return a pool-managed packet to the free list (else no-op)."""
        if not packet.pooled:
            return
        packet.pooled = False
        header = packet.header
        if header is None:
            return
        cls = header.__class__
        free = self._free.get(cls)
        if free is None:
            free = self._free[cls] = []
        if len(free) < self.max_free:
            free.append(packet)
            self.recycled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {c.__name__: len(v) for c, v in self._free.items()}
        return (
            f"PacketPool(hits={self.hits}, misses={self.misses}, "
            f"recycled={self.recycled}, free={sizes})"
        )
