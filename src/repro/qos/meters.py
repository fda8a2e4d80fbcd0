"""Token buckets and two/three-color traffic meters.

These implement the metering half of DiffServ edge conditioning:

* :class:`TokenBucket` — the elementary continuous-fill bucket;
* :class:`SrTcmMeter` — single-rate three-color marker, RFC 2697;
* :class:`TrTcmMeter` — two-rate three-color marker, RFC 2698.

Meters are *color-blind* by default (they ignore any pre-existing
packet color), matching a first-hop edge conditioner.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.packet import Color


class TokenBucket:
    """A continuously-filled token bucket.

    Parameters
    ----------
    rate_bps:
        Fill rate in bits per second (tokens are bytes; the bucket
        converts internally).
    burst_bytes:
        Bucket depth in bytes.
    """

    def __init__(self, rate_bps: float, burst_bytes: float):
        if rate_bps < 0 or burst_bytes <= 0:
            raise ValueError("need rate >= 0 and burst > 0")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = float(burst_bytes)
        self.tokens = float(burst_bytes)
        self._last_fill = 0.0

    def refill(self, now: float) -> None:
        """Advance the fill clock to ``now``."""
        if now > self._last_fill:
            self.tokens = min(
                self.burst_bytes,
                self.tokens + (now - self._last_fill) * self.rate_bps / 8.0,
            )
            self._last_fill = now

    def try_consume(self, size_bytes: int, now: float) -> bool:
        """Consume ``size_bytes`` tokens if available; True on success."""
        self.refill(now)
        if self.tokens >= size_bytes:
            self.tokens -= size_bytes
            return True
        return False

    def peek(self, now: float) -> float:
        """Current token level (bytes) after refilling to ``now``."""
        self.refill(now)
        return self.tokens


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


class TrTcmMeter:
    """Two-rate three-color meter (RFC 2698).

    A peak-rate bucket (PIR/PBS) and a committed-rate bucket (CIR/CBS):

    * above peak → ``RED``,
    * within peak but above committed → ``YELLOW``,
    * within committed → ``GREEN``.
    """

    def __init__(
        self, cir_bps: float, cbs_bytes: float, pir_bps: float, pbs_bytes: float
    ):
        if pir_bps < cir_bps:
            raise ValueError("peak rate must be >= committed rate")
        self._committed = TokenBucket(cir_bps, cbs_bytes)
        self._peak = TokenBucket(pir_bps, pbs_bytes)
        self._counts = [0] * len(Color)  # indexed by color._value_

    def color_of(self, size_bytes: int, now: float) -> Color:
        """Meter one packet and return its color (consuming tokens)."""
        self._peak.refill(now)
        self._committed.refill(now)
        if self._peak.tokens < size_bytes:
            color = Color.RED
        elif self._committed.tokens < size_bytes:
            self._peak.tokens -= size_bytes
            color = Color.YELLOW
        else:
            self._peak.tokens -= size_bytes
            self._committed.tokens -= size_bytes
            color = Color.GREEN
        self._counts[color._value_] += 1
        return color

    @property
    def counts(self) -> Dict[Color, int]:
        """Packets metered per color (read-only snapshot)."""
        return {c: self._counts[c._value_] for c in Color}
