"""P2 — reverse-path (ACK/feedback) congestion on an AF chain (PR 3).

TFRC-family control loops live on the feedback path: the receiver's
loss-event reports ride the reverse links.  Here greedy TCP flows run
*against* the assured flow over the same duplex RIO chain
(:func:`repro.topo.presets.reverse_path_chain_spec`), congesting the
queues its feedback traverses — delayed/dropped reports inflate the
no-feedback timer risk and stale the rate computation.  The experiment
asks whether gTFRC's floor still holds ``g`` when the control channel
itself is under attack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.topo import build, reverse_path_chain_spec

#: Transports accepted by the scenario.
REVERSE_PATH_PROTOCOLS = ("tfrc", "gtfrc", "qtpaf")


@dataclass
class ReversePathResult(ScenarioResult):
    """Outcome of one reverse-path congestion run."""

    __computed_metrics__ = ("ratio",)

    protocol: str
    target_bps: float
    achieved_bps: float
    reverse_total_bps: float
    feedback_received: int
    reverse_drop_ratio: float  # drops on the last reverse hop's queue

    @property
    def ratio(self) -> float:
        """Achieved / negotiated — 1.0 means the assurance held."""
        return self.achieved_bps / self.target_bps if self.target_bps else 0.0


@register(
    "reverse_path_chain",
    grid={"protocol": ("tfrc", "gtfrc"), "n_reverse": (2, 6)},
)
def reverse_path_scenario(
    protocol: str,
    target_bps: float = 4e6,
    n_hops: int = 3,
    n_reverse: int = 4,
    rate_bps: float = 10e6,
    reverse_start: float = 0.0,
    duration: float = 40.0,
    warmup: float = 10.0,
    seed: int = 0,
) -> ReversePathResult:
    """One assured flow forward, ``n_reverse`` greedy TCP flows backward.

    The assured flow runs ``h0 -> h{n_hops}`` with AF conditioning on
    the first hop; the TCP flows run the other way, sharing the duplex
    RIO hops with the assured flow's feedback packets (which, being
    unmarked, are out-of-profile on the reverse queues — the worst
    case).  Returns the assured goodput, the aggregate reverse
    throughput and feedback-delivery counters.
    """
    if protocol not in REVERSE_PATH_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    sim = Simulator(seed=seed)
    built = build(
        sim,
        reverse_path_chain_spec(
            protocol,
            target_bps,
            n_hops=n_hops,
            n_reverse=n_reverse,
            rate_bps=rate_bps,
            reverse_start=reverse_start,
        ),
    )
    sim.run(until=duration)
    # congestion concentrates on the *first* reverse hop: the TCP
    # senders and the assured receiver's feedback both inject at
    # h{n_hops}, so its outbound queue is where reverse drops happen
    # (downstream reverse hops see traffic already shaped to line rate)
    reverse_stats = built.queue(f"h{n_hops}", f"h{n_hops - 1}").stats
    return ReversePathResult(
        protocol=protocol,
        target_bps=target_bps,
        achieved_bps=built.recorder("assured").mean_rate_bps(warmup, duration),
        reverse_total_bps=fold_sum(
            built.recorder(f"rev{j}").mean_rate_bps(warmup, duration)
            for j in range(1, 1 + n_reverse)
        ),
        feedback_received=built.senders["assured"].feedback_received,
        reverse_drop_ratio=reverse_stats.drop_ratio(),
    )
