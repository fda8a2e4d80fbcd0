"""Wire-level connection setup: offer / accept capability handshake.

The initiator (conventionally the data sender) advertises its
:class:`~repro.core.negotiation.CapabilitySet` in an ``offer`` control
packet; the responder negotiates against its own capabilities and
returns the chosen :class:`~repro.core.profile.TransportProfile` in an
``accept`` (or a ``reject`` carrying the error).  On success both sides
replace their handshake agents with the composed transport endpoints
and the sender starts transmitting — one round trip, like the paper's
"negotiated between the transport entities".

Control packets are retransmitted on a timer, so the handshake survives
a lossy path.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.negotiation import CapabilitySet, NegotiationError, negotiate
from repro.core.profile import TransportProfile
from repro.core.receiver import QtpReceiver
from repro.core.sender import QtpSender
from repro.sim.engine import Simulator, Timer
from repro.sim.node import Agent, Node
from repro.sim.packet import NegotiationHeader, Packet, PacketKind

#: Size of a handshake control packet on the wire, bytes.
HANDSHAKE_SIZE = 64

#: Offer retransmission interval (seconds) and attempt budget.
HANDSHAKE_RTX_INTERVAL = 0.5
HANDSHAKE_MAX_ATTEMPTS = 10


class HandshakeFailed(Exception):
    """The responder rejected the offer or attempts were exhausted."""


class Responder(Agent):
    """Listening endpoint: answers offers, then becomes a receiver.

    Parameters
    ----------
    capabilities: what this endpoint supports.
    on_established: callback ``fn(receiver, profile)`` run after the
        transport receiver replaces this agent.
    receiver_kwargs: extra arguments for :class:`QtpReceiver`
        (recorder, meter, on_deliver, ...).
    """

    __slots__ = (
        "capabilities", "on_established", "receiver_kwargs", "receiver",
        "profile",
    )

    def __init__(
        self,
        sim: Simulator,
        capabilities: CapabilitySet,
        on_established: Optional[Callable[[QtpReceiver, TransportProfile], None]] = None,
        receiver_kwargs: Optional[dict] = None,
    ):
        super().__init__(sim)
        self.capabilities = capabilities
        self.on_established = on_established
        self.receiver_kwargs = receiver_kwargs or {}
        self.receiver: Optional[QtpReceiver] = None
        self.profile: Optional[TransportProfile] = None

    def receive(self, packet: Packet) -> None:
        """Handle an offer (idempotently — offers may be retransmitted)."""
        header = packet.header
        if not isinstance(header, NegotiationHeader) or header.phase != "offer":
            return
        if self.profile is None:
            offered = CapabilitySet.from_wire(header.payload)
            try:
                self.profile = negotiate(offered, self.capabilities)
            except NegotiationError as exc:
                self._reply(packet, "reject", {"error": str(exc)})
                return
            self._install_receiver()
        self._reply(packet, "accept", self.profile.to_wire())

    def _install_receiver(self) -> None:
        assert self.node is not None and self.profile is not None
        node, flow = self.node, self.flow_id
        node.unbind(flow)
        self.receiver = QtpReceiver(self.sim, self.profile, **self.receiver_kwargs)
        self.receiver.attach(node, flow)
        if self.on_established is not None:
            self.on_established(self.receiver, self.profile)

    def _reply(self, offer: Packet, phase: str, payload: dict) -> None:
        src, dst = offer.reply_to()
        packet = Packet(
            src=src,
            dst=dst,
            flow_id=self.flow_id,
            size=HANDSHAKE_SIZE,
            kind=PacketKind.CONTROL,
            header=NegotiationHeader(phase=phase, payload=payload),
            created_at=self.sim.now,
        )
        # we stay associated with the node even after the receiver
        # replaced our flow binding, so reply through it directly
        assert self.node is not None
        self.node.send(packet)


class Initiator(Agent):
    """Connecting endpoint: sends offers, then becomes a sender.

    Parameters
    ----------
    dst: responder's node name.
    capabilities: what this endpoint supports/prefers.
    on_established: callback ``fn(sender, profile)``; the sender is
        already started.
    sender_kwargs: extra arguments for :class:`QtpSender` (bulk, ...).
    on_failed: callback ``fn(reason)`` on reject/exhaustion.
    """

    __slots__ = (
        "dst", "capabilities", "on_established", "on_failed",
        "sender_kwargs", "auto_start", "sender", "profile", "attempts",
        "_rtx",
    )

    def __init__(
        self,
        sim: Simulator,
        dst: str,
        capabilities: CapabilitySet,
        on_established: Optional[Callable[[QtpSender, TransportProfile], None]] = None,
        sender_kwargs: Optional[dict] = None,
        on_failed: Optional[Callable[[str], None]] = None,
        auto_start: bool = True,
    ):
        super().__init__(sim)
        self.dst = dst
        self.capabilities = capabilities
        self.on_established = on_established
        self.on_failed = on_failed
        self.sender_kwargs = sender_kwargs or {}
        self.auto_start = auto_start
        self.sender: Optional[QtpSender] = None
        self.profile: Optional[TransportProfile] = None
        self.attempts = 0
        self._rtx = Timer(sim, self._send_offer)

    def start(self) -> None:
        """Send the first offer."""
        self._send_offer()

    def stop(self) -> None:
        """Abort the handshake."""
        self._rtx.stop()

    def _send_offer(self) -> None:
        if self.profile is not None:
            return
        if self.attempts >= HANDSHAKE_MAX_ATTEMPTS:
            self._fail("handshake attempts exhausted")
            return
        self.attempts += 1
        packet = Packet(
            src=self.node.name if self.node else "?",
            dst=self.dst,
            flow_id=self.flow_id,
            size=HANDSHAKE_SIZE,
            kind=PacketKind.CONTROL,
            header=NegotiationHeader(
                phase="offer", payload=self.capabilities.to_wire()
            ),
            created_at=self.sim.now,
        )
        self.send(packet)
        self._rtx.restart(HANDSHAKE_RTX_INTERVAL)

    def receive(self, packet: Packet) -> None:
        """Handle the responder's accept/reject."""
        header = packet.header
        if not isinstance(header, NegotiationHeader):
            return
        if header.phase == "reject":
            self._fail(str(header.payload.get("error", "rejected")))
            return
        if header.phase != "accept" or self.profile is not None:
            return
        self._rtx.stop()
        self.profile = TransportProfile.from_wire(header.payload)
        assert self.node is not None
        node, flow = self.node, self.flow_id
        node.unbind(flow)
        self.sender = QtpSender(self.sim, dst=self.dst, profile=self.profile, **self.sender_kwargs)
        self.sender.attach(node, flow)
        if self.auto_start:
            self.sender.start()
        if self.on_established is not None:
            self.on_established(self.sender, self.profile)

    def _fail(self, reason: str) -> None:
        self._rtx.stop()
        if self.on_failed is not None:
            self.on_failed(reason)
        else:
            raise HandshakeFailed(reason)
