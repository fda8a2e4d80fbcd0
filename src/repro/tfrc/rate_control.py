"""TFRC sender rate state machine (RFC 3448 §4).

:class:`TfrcRateController` is a pure (simulator-free) state machine:
the agent feeds it feedback reports and timer expirations, and reads
back the allowed sending rate and the next nofeedback interval.  All
rates are **bytes per second**.

Slow-start doubles the rate at most once per RTT, capped by twice the
receive rate; once the first loss event is reported, the rate follows
the TCP throughput equation capped by ``2 * X_recv``; the nofeedback
timer halves the rate when reports stop arriving.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.tfrc.equation import tcp_throughput
from repro.tfrc.rtt import RttEstimator

#: Maximum back-off interval of §4.3: one packet per 64 seconds.
T_MBI = 64.0


class TfrcRateController:
    """RFC 3448 sender-side rate computation.

    Parameters
    ----------
    segment_size:
        Segment size ``s`` in bytes used in the throughput equation.
    initial_packet_interval:
        Rate before the first feedback: one packet per this many
        seconds (§4.2 mandates starting at one packet per second).
    """

    __slots__ = (
        "s", "rtt", "rate", "p", "x_recv", "_t_last_double",
        "_had_first_feedback", "feedback_count", "timeout_count",
        "oscillation_damping", "_rtt_sqmean", "_last_rtt_sample",
    )

    def __init__(
        self,
        segment_size: int = 1000,
        initial_packet_interval: float = 1.0,
        oscillation_damping: bool = False,
    ):
        if segment_size <= 0:
            raise ValueError("segment size must be positive")
        self.s = segment_size
        self.rtt = RttEstimator()
        self.rate = segment_size / initial_packet_interval  # bytes/s
        self.p = 0.0
        self.x_recv = 0.0
        self._t_last_double: Optional[float] = None
        self._had_first_feedback = False
        self.feedback_count = 0
        self.timeout_count = 0
        #: §4.5 oscillation prevention: modulate the inter-packet
        #: interval by sqrt(R_sample / R_sqmean) so that rising queueing
        #: delay immediately slows the sender
        self.oscillation_damping = oscillation_damping
        self._rtt_sqmean: Optional[float] = None
        self._last_rtt_sample: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def in_slow_start(self) -> bool:
        """True while no loss event has been reported (``p == 0``)."""
        return self.p <= 0.0

    def initial_window_rate(self, rtt: float) -> float:
        """RFC 3390 initial rate: ``min(4s, max(2s, 4380)) / R`` bytes/s."""
        w_init = min(4 * self.s, max(2 * self.s, 4380))
        return w_init / rtt

    # ------------------------------------------------------------------
    def on_feedback(
        self,
        now: float,
        p: float,
        x_recv: float,
        rtt_sample: float,
    ) -> float:
        """Process one receiver report; returns the new allowed rate.

        Parameters
        ----------
        p: loss event rate reported (or computed sender-side).
        x_recv: receive rate over the last feedback interval, bytes/s.
        rtt_sample: RTT measured from the report's timestamp echo.
        """
        self.feedback_count += 1
        rtt = self.rtt.update(rtt_sample)
        self._last_rtt_sample = rtt_sample
        if self._rtt_sqmean is None:
            self._rtt_sqmean = math.sqrt(rtt_sample)
        else:
            # EWMA of sqrt(RTT) with the §4.5 suggested gain
            self._rtt_sqmean = (
                0.9 * self._rtt_sqmean + 0.1 * math.sqrt(rtt_sample)
            )
        self.p = max(0.0, p)
        self.x_recv = max(0.0, x_recv)
        if not self._had_first_feedback:
            self._had_first_feedback = True
            self.rate = self.initial_window_rate(rtt)
            self._t_last_double = now
            if self.p > 0:
                self._apply_equation(rtt)
            return self.rate
        if self.p > 0:
            self._apply_equation(rtt)
        else:
            self._slow_start_step(now, rtt)
        return self.rate

    def _apply_equation(self, rtt: float) -> None:
        x_calc = tcp_throughput(self.s, rtt, self.p)
        cap = 2.0 * self.x_recv if self.x_recv > 0 else x_calc
        self.rate = max(min(x_calc, cap), self.s / T_MBI)

    def _slow_start_step(self, now: float, rtt: float) -> None:
        # §4.3: "X = max(min(2*X, 2*X_recv), s/R)", at most one doubling
        # per RTT.  With X_recv = 0 (no data received over the last
        # interval) this collapses to one packet per RTT — the receive
        # rate is the hard cap, never the sender's own previous rate.
        if self._t_last_double is not None and now - self._t_last_double < rtt:
            self.rate = max(min(self.rate, 2.0 * self.x_recv), self.s / rtt)
            return
        self.rate = max(min(2.0 * self.rate, 2.0 * self.x_recv), self.s / rtt)
        self._t_last_double = now

    # ------------------------------------------------------------------
    def on_nofeedback_timeout(self, now: float) -> float:
        """Halve the rate after a nofeedback interval (§4.4)."""
        self.timeout_count += 1
        if self.x_recv > 0:
            # emulate the RFC's X_recv halving: cap at half the old receive rate
            self.x_recv /= 2.0
        self.rate = max(self.rate / 2.0, self.s / T_MBI)
        return self.rate

    def nofeedback_interval(self) -> float:
        """Duration to arm the nofeedback timer for: ``max(4R, 2s/X)``."""
        if self.rtt.valid:
            assert self.rtt.rtt is not None
            return max(4.0 * self.rtt.rtt, 2.0 * self.s / self.rate)
        return 2.0  # before any RTT measurement (§4.2)

    def send_interval(self) -> float:
        """Inter-packet gap for paced sending: ``s / X`` seconds.

        With :attr:`oscillation_damping`, the instantaneous interval is
        scaled by ``sqrt(R_sample) / sqrt_mean(R)`` (§4.5): when the
        latest RTT sample exceeds its long-run mean (queue building),
        packets are spaced further apart without touching the average
        allowed rate.
        """
        if self.rate <= 0 or math.isinf(self.rate):
            raise ValueError(f"invalid rate {self.rate!r}")
        interval = self.s / self.rate
        if (
            self.oscillation_damping
            and self._rtt_sqmean
            and self._last_rtt_sample is not None
        ):
            ratio = math.sqrt(self._last_rtt_sample) / self._rtt_sqmean
            interval *= min(2.0, max(0.5, ratio))
        return interval

    @property
    def current_rtt(self) -> Optional[float]:
        """Smoothed RTT estimate (None before the first sample)."""
        return self.rtt.rtt
