"""Nodes and transport agents.

A :class:`Node` forwards packets along static next-hop routes (filled in
by :meth:`repro.sim.topology.Network.compute_routes`) and delivers
packets addressed to itself to the :class:`Agent` bound to the packet's
flow id.

An :class:`Agent` is one endpoint of a transport connection (a TFRC
sender, a TCP receiver, ...).  Agents send by handing packets to their
node and receive via :meth:`Agent.receive`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.link import Link


class RoutingError(Exception):
    """No route or no bound agent for a packet."""


class Node:
    """A network node: forwarding plus local agent delivery.

    Attributes
    ----------
    links: outgoing links keyed by neighbour node name.
    next_hop: static routing table, destination name -> neighbour name.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.links: Dict[str, "Link"] = {}
        self.next_hop: Dict[str, str] = {}
        self._agents: Dict[str, "Agent"] = {}
        self.rx_packets = 0
        self.forwarded_packets = 0
        self.on_unroutable: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    def bind(self, flow_id: str, agent: "Agent") -> None:
        """Register ``agent`` to receive packets of ``flow_id`` here."""
        if flow_id in self._agents and self._agents[flow_id] is not agent:
            raise RoutingError(f"flow {flow_id!r} already bound on {self.name}")
        self._agents[flow_id] = agent

    def unbind(self, flow_id: str) -> None:
        """Remove a flow binding; silently ignores unknown flows."""
        self._agents.pop(flow_id, None)

    def agent_for(self, flow_id: str) -> Optional["Agent"]:
        """The agent bound to ``flow_id``, or None."""
        return self._agents.get(flow_id)

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Inject a locally generated packet into the network."""
        return self._forward(packet)

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from a link."""
        packet.hops += 1
        dst = packet.dst
        if dst == self.name:
            self.rx_packets += 1
            agent = self._agents.get(packet.flow_id)
            if agent is None:
                raise RoutingError(
                    f"{self.name}: no agent for flow {packet.flow_id!r}"
                )
            agent.receive(packet)
            return
        self.forwarded_packets += 1
        # routed transit, once per packet per hop: hand over without
        # the _forward frame (a missing next_hop entry looks up None,
        # which is no link's key)
        link = self.links.get(self.next_hop.get(dst))
        if link is not None:
            link.send(packet)
        else:
            self._forward(packet)

    def _forward(self, packet: Packet) -> bool:
        """Resolve the outgoing link the slow way, with every fallback:
        directly connected destination, ``on_unroutable``, errors."""
        hop = self.next_hop.get(packet.dst)
        if hop is None:
            if packet.dst in self.links:  # directly connected
                hop = packet.dst
            else:
                if self.on_unroutable is not None:
                    self.on_unroutable(packet)
                    return False
                raise RoutingError(f"{self.name}: no route to {packet.dst!r}")
        link = self.links.get(hop)
        if link is None:
            raise RoutingError(f"{self.name}: next hop {hop!r} not connected")
        return link.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name}, links={sorted(self.links)})"


class Agent:
    """Base class for transport endpoints.

    Subclasses implement :meth:`receive`; :meth:`attach` wires the agent
    to a node under a flow id, and :meth:`send` injects packets.

    Agents exist once per flow endpoint, so the base class and every
    transport subclass declare ``__slots__``: an instance carries its
    fields and no ``__dict__`` (a subclass without its own
    ``__slots__`` would bring the dict back).
    """

    __slots__ = ("sim", "node", "flow_id")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.node: Optional[Node] = None
        self.flow_id: str = ""

    def attach(self, node: Node, flow_id: str) -> "Agent":
        """Bind this agent to ``node`` for ``flow_id``; returns self."""
        node.bind(flow_id, self)
        self.node = node
        self.flow_id = flow_id
        return self

    def send(self, packet: Packet) -> bool:
        """Send a packet through the attached node."""
        if self.node is None:
            raise RoutingError("agent is not attached to a node")
        return self.node.send(packet)

    def receive(self, packet: Packet) -> None:
        """Handle a packet addressed to this agent.  Subclasses override."""
        raise NotImplementedError

    # Lifecycle hooks -----------------------------------------------------
    def start(self) -> None:
        """Begin operation (e.g. start sending).  Default: no-op."""

    def stop(self) -> None:
        """Cease operation and cancel timers.  Default: no-op."""
