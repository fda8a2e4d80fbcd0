"""Discrete-event network simulator substrate.

The simulator is packet-level and fully deterministic for a given seed.
It provides:

* :class:`repro.sim.engine.Simulator` — event loop, timers and
  namespaced random streams;
* :class:`repro.sim.packet.Packet` — the unit of transmission with
  typed protocol headers;
* :class:`repro.sim.node.Node` and :class:`repro.sim.link.Link` —
  store-and-forward forwarding with pluggable queues and channels;
* :mod:`repro.sim.queues` — DropTail, RED and RIO queue disciplines;
* :mod:`repro.sim.topology` — the :class:`Network` container with
  static shortest-path routing (built from :mod:`repro.topo` specs).
"""

from repro.sim.engine import Event, Simulator, Timer
from repro.sim.packet import Color, Packet, PacketKind, PacketPool
from repro.sim.node import Agent, Node
from repro.sim.link import Link
from repro.sim.topology import Network

__all__ = [
    "Simulator",
    "Event",
    "Timer",
    "Packet",
    "PacketKind",
    "PacketPool",
    "Color",
    "Node",
    "Agent",
    "Link",
    "Network",
]
