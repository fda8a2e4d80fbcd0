"""Loss and delay-variation channel models.

All channels draw from an injected :class:`random.Random` stream so runs
are reproducible and independent of other components (see
:meth:`repro.sim.engine.Simulator.rng`).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sim.packet import Packet


class BernoulliLossChannel:
    """Independent (memoryless) random loss with probability ``loss_rate``.

    The canonical model for light random wireless corruption: each packet
    is dropped i.i.d., so losses are unclustered — the regime where TCP's
    loss-equals-congestion assumption costs it the most throughput.
    """

    def __init__(self, loss_rate: float, rng: Optional[random.Random] = None):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self._rng = rng or random.Random(0xBE11)
        self.offered = 0
        self.lost = 0

    def transit(self, packet: Packet, now: float) -> Optional[float]:
        """Drop with probability ``loss_rate``; otherwise no extra delay."""
        self.offered += 1
        if self._rng.random() < self.loss_rate:
            self.lost += 1
            return None
        return 0.0

    def observed_loss_rate(self) -> float:
        """Empirical loss fraction so far (0.0 before any traffic)."""
        return self.lost / self.offered if self.offered else 0.0


class GilbertElliottChannel:
    """Two-state Markov (Gilbert–Elliott) bursty loss channel.

    The channel alternates between a GOOD state with loss probability
    ``p_good`` and a BAD state with loss probability ``p_bad``;
    transitions occur per packet with probabilities ``p_g2b`` and
    ``p_b2g``.  This reproduces the clustered loss patterns of fading
    wireless links, which interact badly with TCP's fast-retransmit
    heuristics and with TFRC's loss-event clustering.

    The steady-state loss rate is
    ``(p_b2g * p_good + p_g2b * p_bad) / (p_g2b + p_b2g)``.
    """

    GOOD, BAD = 0, 1

    def __init__(
        self,
        p_g2b: float = 0.005,
        p_b2g: float = 0.2,
        p_good: float = 0.0,
        p_bad: float = 0.5,
        rng: Optional[random.Random] = None,
    ):
        for name, value in (
            ("p_g2b", p_g2b),
            ("p_b2g", p_b2g),
            ("p_good", p_good),
            ("p_bad", p_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if p_g2b + p_b2g <= 0:
            raise ValueError("chain must be able to change state")
        self.p_g2b, self.p_b2g = p_g2b, p_b2g
        self.p_good, self.p_bad = p_good, p_bad
        self._rng = rng or random.Random(0x6E11)
        self.state = self.GOOD
        self.offered = 0
        self.lost = 0

    def steady_state_loss_rate(self) -> float:
        """Analytic long-run loss probability of the chain."""
        pi_bad = self.p_g2b / (self.p_g2b + self.p_b2g)
        return (1 - pi_bad) * self.p_good + pi_bad * self.p_bad

    def transit(self, packet: Packet, now: float) -> Optional[float]:
        """Advance the chain one packet and decide its fate."""
        self.offered += 1
        if self.state == self.GOOD:
            if self._rng.random() < self.p_g2b:
                self.state = self.BAD
        else:
            if self._rng.random() < self.p_b2g:
                self.state = self.GOOD
        p_loss = self.p_good if self.state == self.GOOD else self.p_bad
        if self._rng.random() < p_loss:
            self.lost += 1
            return None
        return 0.0

    def observed_loss_rate(self) -> float:
        """Empirical loss fraction so far (0.0 before any traffic)."""
        return self.lost / self.offered if self.offered else 0.0


class JitterChannel:
    """Adds uniform random extra delay in ``[0, max_jitter]`` seconds.

    Note: large jitter relative to packet spacing produces reordering,
    since each packet's delivery is scheduled independently.
    """

    def __init__(self, max_jitter: float, rng: Optional[random.Random] = None):
        if max_jitter < 0:
            raise ValueError("max_jitter must be non-negative")
        self.max_jitter = max_jitter
        self._rng = rng or random.Random(0x717E)

    def transit(self, packet: Packet, now: float) -> Optional[float]:
        """Always deliver, with uniform extra delay."""
        return self._rng.random() * self.max_jitter

