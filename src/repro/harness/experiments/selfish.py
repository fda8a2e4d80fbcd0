"""T4 — selfish receivers (paper §3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instances import QTPLIGHT, TFRC_MEDIA, build_transport_pair
from repro.core.qtplight import LyingFeedbackFilter
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.topo import QueueSpec, ScenarioSpec, build, dumbbell_spec


@dataclass
class SelfishResult(ScenarioResult):
    """Goodput split between a (possibly cheating) flow and its victim."""

    mode: str
    lying: bool
    cheater_bps: float
    victim_bps: float


@register(
    "selfish_receiver",
    grid={"mode": ("tfrc", "qtplight"), "lying": (False, True)},
)
def selfish_receiver_scenario(
    mode: str,
    lying: bool,
    bottleneck_bps: float = 4e6,
    duration: float = 80.0,
    warmup: float = 20.0,
    seed: int = 0,
) -> SelfishResult:
    """A (possibly lying) receiver shares a bottleneck with an honest TFRC.

    ``mode`` is "tfrc" (standard, receiver-computed p — vulnerable) or
    "qtplight" (sender-computed p — the paper's protection).  With
    ``lying=True`` the first flow's receiver mangles its reports per
    :class:`~repro.core.qtplight.LyingFeedbackFilter`.
    """
    if mode not in ("tfrc", "qtplight"):
        raise ValueError(f"unknown mode {mode!r}")
    sim = Simulator(seed=seed)
    shape = dumbbell_spec(
        2, bottleneck_bps=bottleneck_bps, bottleneck_delay=0.02,
        bottleneck_queue=QueueSpec(capacity_packets=40),
    )
    net = build(sim, ScenarioSpec("selfish_receiver", shape)).net
    cheater_rec = FlowRecorder("cheater")
    victim_rec = FlowRecorder("victim")
    profile = TFRC_MEDIA if mode == "tfrc" else QTPLIGHT
    flt = LyingFeedbackFilter(p_scale=0.0, x_scale=4.0) if lying else None
    build_transport_pair(
        sim, net.node("s0"), net.node("d0"), "cheat", profile,
        recorder=cheater_rec, feedback_filter=flt, start=True,
    )
    build_transport_pair(
        sim, net.node("s1"), net.node("d1"), "victim", TFRC_MEDIA,
        recorder=victim_rec, start=True,
    )
    sim.run(until=duration)
    return SelfishResult(
        mode=mode,
        lying=lying,
        cheater_bps=cheater_rec.mean_rate_bps(warmup, duration),
        victim_bps=victim_rec.mean_rate_bps(warmup, duration),
    )
