"""F4 — TCP friendliness of TFRC (paper §2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.stats import jain_index
from repro.sim.engine import Simulator
from repro.topo import FlowSpec, QueueSpec, ScenarioSpec, build, dumbbell_spec


@dataclass
class FriendlinessResult(ScenarioResult):
    """Bandwidth sharing of one TFRC against N TCP flows."""

    n_tcp: int
    tfrc_bps: float
    tcp_mean_bps: float
    normalized: float
    jain: float


@register("friendliness", grid={"n_tcp": (1, 2, 4, 8, 16)})
def friendliness_scenario(
    n_tcp: int,
    bottleneck_bps: float = 8e6,
    duration: float = 100.0,
    warmup: float = 20.0,
    seed: int = 0,
) -> FriendlinessResult:
    """One TFRC flow sharing a RED bottleneck with ``n_tcp`` TCP flows."""
    sim = Simulator(seed=seed)
    red = QueueSpec(
        kind="red", min_th=10, max_th=30, capacity_packets=80, rng_stream="red"
    )
    shape = dumbbell_spec(
        1 + n_tcp, bottleneck_bps=bottleneck_bps, bottleneck_delay=0.02,
        bottleneck_queue=red,
    )
    flows = [FlowSpec("tfrc", "s0", "d0", transport="tfrc")] + [
        FlowSpec(f"tcp{i}", f"s{i}", f"d{i}", transport="tcp")
        for i in range(1, 1 + n_tcp)
    ]
    built = build(sim, ScenarioSpec("friendliness", shape, tuple(flows)))
    sim.run(until=duration)
    tfrc_bps = built.recorder("tfrc").mean_rate_bps(warmup, duration)
    tcp_rates = [
        built.recorder(f"tcp{i}").mean_rate_bps(warmup, duration)
        for i in range(1, 1 + n_tcp)
    ]
    tcp_mean = sum(tcp_rates) / len(tcp_rates)
    return FriendlinessResult(
        n_tcp=n_tcp,
        tfrc_bps=tfrc_bps,
        tcp_mean_bps=tcp_mean,
        normalized=tfrc_bps / tcp_mean if tcp_mean > 0 else float("inf"),
        jain=jain_index([tfrc_bps] + tcp_rates),
    )
