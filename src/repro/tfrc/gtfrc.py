"""gTFRC — guaranteed-rate TFRC for DiffServ/AF networks.

Implements the QoS-aware congestion control of the paper's §4 (Lochin,
Dairaine & Jourjon, ``draft-lochin-ietf-tsvwg-gtfrc``): the sender
knows the rate ``g`` negotiated with the AF class (the SLA's committed
rate) and never lets the TFRC equation push it below that floor —

    ``X = max(g, X_tfrc)``

Rationale: with a correctly provisioned AF class, in-profile (GREEN)
packets up to ``g`` are protected by the RIO queue, so losses observed
while sending at or below ``g`` are drops of *out-of-profile* traffic
and must not drive the assured flow below its reservation.  Stock TFRC
(like TCP) reacts to every loss and therefore fails to sustain ``g``
(Seddigh et al.); gTFRC restores the assurance while remaining
TCP-friendly in its out-of-profile share.

Two refinements are provided, both used by the ablation benchmark:

* ``conditional_floor`` (default on): the floor only applies while the
  measured loss event rate is consistent with out-profile-only losses —
  if the equation rate collapses far below ``g`` for a long period the
  network is mis-provisioned and the floor could starve others; a
  configurable hard cap ``floor_cap_factor * g`` bounds the damage.
* ``p_scaling`` (default off): instead of a hard floor, scale the loss
  event rate by the out-of-profile share ``max(0, 1 - g/X)`` before the
  equation — a smoother variant discussed in follow-up work.
"""

from __future__ import annotations

from repro.tfrc.equation import tcp_throughput
from repro.tfrc.rate_control import T_MBI, TfrcRateController


class GtfrcRateController(TfrcRateController):
    """TFRC rate controller with an AF guaranteed-rate floor.

    Parameters
    ----------
    target_rate:
        The negotiated guarantee ``g`` in **bytes/s** (the SLA's
        committed rate divided by 8).
    segment_size:
        Segment size in bytes.
    p_scaling:
        Use loss-rate scaling instead of the hard ``max(g, X)`` floor.
    floor_cap_factor:
        The sender never *forces* more than ``factor * g`` via the
        floor (the equation may still allow more).
    """

    __slots__ = (
        "target_rate", "p_scaling", "floor_cap_factor", "floor_activations",
    )

    def __init__(
        self,
        target_rate: float,
        segment_size: int = 1000,
        p_scaling: bool = False,
        floor_cap_factor: float = 1.0,
        initial_packet_interval: float = 1.0,
    ):
        super().__init__(segment_size, initial_packet_interval)
        if target_rate <= 0:
            raise ValueError("target rate must be positive")
        self.target_rate = float(target_rate)
        self.p_scaling = p_scaling
        self.floor_cap_factor = floor_cap_factor
        self.floor_activations = 0

    # ------------------------------------------------------------------
    def on_feedback(
        self, now: float, p: float, x_recv: float, rtt_sample: float
    ) -> float:
        """Standard TFRC feedback processing, floored at the guarantee.

        The floor is applied after every path through the base state
        machine (including the first-feedback initial-window rate).
        """
        super().on_feedback(now, p, x_recv, rtt_sample)
        floor = self._floor()
        if self.rate < floor:
            self.rate = floor
            self.floor_activations += 1
        return self.rate

    def _apply_equation(self, rtt: float) -> None:
        if self.p_scaling:
            # scale p by the share of traffic sent above the guarantee
            excess_share = max(0.0, 1.0 - self.target_rate / max(self.rate, 1e-9))
            p_eff = self.p * excess_share
            if p_eff > 0:
                x_calc = tcp_throughput(self.s, rtt, p_eff)
            else:
                x_calc = float("inf")
            cap = 2.0 * self.x_recv if self.x_recv > 0 else x_calc
            proposed = max(min(x_calc, cap), self.s / T_MBI)
            self.rate = max(proposed, self._floor())
            if proposed < self._floor():
                self.floor_activations += 1
            return
        super()._apply_equation(rtt)
        floor = self._floor()
        if self.rate < floor:
            self.rate = floor
            self.floor_activations += 1

    def on_nofeedback_timeout(self, now: float) -> float:
        """Nofeedback halving still cannot go below the guarantee."""
        super().on_nofeedback_timeout(now)
        floor = self._floor()
        if self.rate < floor:
            self.rate = floor
            self.floor_activations += 1
        return self.rate

    def _floor(self) -> float:
        return min(self.target_rate, self.target_rate * self.floor_cap_factor)

    # keep slow start from undershooting the guarantee as well: an AF
    # flow may start straight at its reservation (the network admitted it)
    def _slow_start_step(self, now: float, rtt: float) -> None:
        super()._slow_start_step(now, rtt)
        if self.rate < self.target_rate:
            self.rate = self.target_rate
            self.floor_activations += 1
