"""Round-trip time estimation for TFRC (RFC 3448 §4.3).

TFRC smooths RTT samples with an EWMA (``q = 0.9``) and derives the
timeout as ``t_RTO = 4 * R``.  A separate :class:`RtoEstimator`
implements the RFC 6298 SRTT/RTTVAR algorithm used by the TCP baseline.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """EWMA RTT filter used by the TFRC sender.

    ``R <- q*R + (1-q)*sample`` with ``q = 0.9`` (RFC 3448 default).
    """

    __slots__ = ("q", "rtt")

    def __init__(self, q: float = 0.9, initial: Optional[float] = None):
        if not 0.0 <= q < 1.0:
            raise ValueError("q must be in [0, 1)")
        self.q = q
        self.rtt: Optional[float] = initial

    def update(self, sample: float) -> float:
        """Fold one RTT sample in and return the smoothed estimate."""
        if sample <= 0:
            raise ValueError("rtt sample must be positive")
        if self.rtt is None:
            self.rtt = sample
        else:
            self.rtt = self.q * self.rtt + (1.0 - self.q) * sample
        return self.rtt

    @property
    def valid(self) -> bool:
        """True once at least one sample has been folded in."""
        return self.rtt is not None

    def rto(self) -> float:
        """TFRC timeout ``t_RTO = 4R`` (requires a valid estimate)."""
        if self.rtt is None:
            raise ValueError("no RTT sample yet")
        return 4.0 * self.rtt


class RtoEstimator:
    """RFC 6298 retransmission-timeout estimator (TCP baseline).

    ``SRTT``/``RTTVAR`` with the standard gains, a configurable minimum
    RTO (the RFC says 1 s; simulations conventionally use a smaller
    floor) and binary exponential backoff.
    """

    __slots__ = ("min_rto", "max_rto", "srtt", "rttvar", "_backoff")

    def __init__(self, min_rto: float = 0.2, max_rto: float = 60.0):
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._backoff = 1.0

    def update(self, sample: float) -> None:
        """Fold one (non-retransmitted) RTT sample in; resets backoff."""
        if sample <= 0:
            raise ValueError("rtt sample must be positive")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self._backoff = 1.0

    def backoff(self) -> None:
        """Double the timeout after an expiry (Karn's algorithm)."""
        self._backoff = min(self._backoff * 2.0, 64.0)

    def rto(self) -> float:
        """Current timeout, with floor/ceiling and backoff applied."""
        if self.srtt is None or self.rttvar is None:
            base = 1.0  # RFC 6298 initial RTO
        else:
            base = self.srtt + max(4.0 * self.rttvar, 1e-4)
        return min(self.max_rto, max(self.min_rto, base) * self._backoff)
