"""F2 — lossy / multi-hop paths: TCP vs TFRC (paper §2, claim 1).

The chain is the declarative
:func:`repro.topo.presets.lossy_chain_spec` compiled by
:func:`repro.topo.build` — per-hop loss channels are spec data
(:class:`repro.topo.specs.ChannelSpec`), not hand-wired factories; the
regenerated F2 table is byte-identical to the hand-built version this
replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.topo import build, lossy_chain_spec


@dataclass
class LossyPathResult(ScenarioResult):
    """Goodput over a lossy multi-hop path."""

    protocol: str
    loss_rate: float
    observed_loss_rate: float
    goodput_bps: float


@register(
    "lossy_path",
    grid={
        "protocol": ("tcp", "tfrc"),
        "loss_rate": (0.005, 0.01, 0.02, 0.05, 0.08),
        "bursty": (True, False),
    },
)
def lossy_path_scenario(
    protocol: str,
    loss_rate: float,
    n_hops: int = 3,
    hop_rate_bps: float = 2e6,
    hop_delay: float = 0.005,
    bursty: bool = False,
    duration: float = 60.0,
    warmup: float = 10.0,
    seed: int = 0,
) -> LossyPathResult:
    """TCP vs TFRC over a chain with per-hop random loss (paper §2 claim 1).

    ``bursty=True`` uses a Gilbert–Elliott channel tuned to the same
    steady-state loss rate (see :func:`lossy_chain_spec`); otherwise
    losses are Bernoulli.
    """
    sim = Simulator(seed=seed)
    built = build(
        sim,
        lossy_chain_spec(
            protocol,
            loss_rate,
            n_hops=n_hops,
            hop_rate_bps=hop_rate_bps,
            hop_delay=hop_delay,
            bursty=bursty,
        ),
    )
    sim.run(until=duration)
    observed = [
        channel.observed_loss_rate()
        for channel in (
            built.link(f"h{i}", f"h{i + 1}").channel for i in range(n_hops)
        )
        if channel is not None
    ]
    return LossyPathResult(
        protocol=protocol,
        loss_rate=loss_rate,
        observed_loss_rate=fold_sum(observed) / len(observed) if observed else 0.0,
        goodput_bps=built.recorder("flow").mean_rate_bps(warmup, duration),
    )
