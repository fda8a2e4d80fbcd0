"""The srTCM traffic meter (RFC 2697).

:class:`SrTcmMeter` is the metering half of DiffServ edge conditioning.
It is *color-blind* (it ignores any pre-existing packet color),
matching a first-hop edge conditioner.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.packet import Color


class SrTcmMeter:
    """Single-rate three-color meter (RFC 2697).

    One committed rate (CIR) feeds both the committed burst bucket (CBS)
    and, with overflow, the excess burst bucket (EBS):

    * tokens in C  → ``GREEN`` (in-profile),
    * else tokens in E → ``YELLOW``,
    * else ``RED``.

    This is the standard AF edge meter: GREEN traffic is what the
    network's assurance (and gTFRC's guaranteed rate) protects.
    """

    def __init__(self, cir_bps: float, cbs_bytes: float, ebs_bytes: float = 0.0):
        if cir_bps <= 0 or cbs_bytes <= 0 or ebs_bytes < 0:
            raise ValueError("need cir > 0, cbs > 0, ebs >= 0")
        self.cir_bps = float(cir_bps)
        self.cbs_bytes = float(cbs_bytes)
        self.ebs_bytes = float(ebs_bytes)
        self.tc = float(cbs_bytes)
        self.te = float(ebs_bytes)
        self._last_fill = 0.0
        self._counts = [0] * len(Color)  # indexed by color._value_

    def _refill(self, now: float) -> None:
        if now <= self._last_fill:
            return
        new_tokens = (now - self._last_fill) * self.cir_bps / 8.0
        self._last_fill = now
        room_c = self.cbs_bytes - self.tc
        into_c = min(new_tokens, room_c)
        self.tc += into_c
        self.te = min(self.ebs_bytes, self.te + (new_tokens - into_c))

    def color_of(self, size_bytes: int, now: float) -> Color:
        """Meter one packet and return its color (consuming tokens)."""
        self._refill(now)
        if self.tc >= size_bytes:
            self.tc -= size_bytes
            color = Color.GREEN
        elif self.te >= size_bytes:
            self.te -= size_bytes
            color = Color.YELLOW
        else:
            color = Color.RED
        self._counts[color._value_] += 1
        return color

    @property
    def counts(self) -> Dict[Color, int]:
        """Packets metered per color (read-only snapshot)."""
        return {c: self._counts[c._value_] for c in Color}

