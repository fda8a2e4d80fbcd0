"""Edge markers: apply a meter's verdict to packets entering the domain.

Markers implement the :class:`repro.sim.link.Marker` protocol and are
installed on edge links (see
:meth:`repro.sim.topology.Network.add_simplex_link`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.stats import fold_sum
from repro.sim.packet import Color, Packet


class ProfileMarker:
    """Color packets of selected flows with a traffic meter.

    Parameters
    ----------
    meter:
        An object with ``color_of(size_bytes, now) -> Color``
        (:class:`~repro.qos.meters.SrTcmMeter`).
    flow_id:
        When given, only packets of this flow are metered; other flows
        fall through to ``default_color``.
    default_color:
        Color applied to non-metered flows (best-effort = ``RED``).
    """

    def __init__(
        self,
        meter,
        flow_id: Optional[str] = None,
        default_color: Color = Color.RED,
    ):
        self.meter = meter
        self.flow_id = flow_id
        self.default_color = default_color
        # indexed by color._value_, as in QueueStats: keying a dict by
        # Color costs a Python-level Enum.__hash__ call per packet
        self._marked = [0] * len(Color)

    def mark(self, packet: Packet, now: float) -> None:
        """Set ``packet.color`` according to the flow profile."""
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            color = self.default_color
        else:
            color = self.meter.color_of(packet.size, now)
        packet.color = color
        self._marked[color._value_] += 1

    @property
    def marked(self) -> Dict[Color, int]:
        """Packets marked per color (read-only snapshot)."""
        return {c: self._marked[c._value_] for c in Color}

    def green_fraction(self) -> float:
        """Fraction of marked packets colored GREEN (diagnostic)."""
        total = fold_sum(self._marked)
        return self._marked[Color.GREEN._value_] / total if total else 0.0


class BestEffortMarker:
    """Mark every packet with a fixed color (default: out-of-profile RED)."""

    def __init__(self, color: Color = Color.RED):
        self.color = color
        self.marked = 0

    def mark(self, packet: Packet, now: float) -> None:
        """Apply the fixed color."""
        packet.color = self.color
        self.marked += 1
