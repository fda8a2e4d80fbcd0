"""F3 — sender-side loss estimation accuracy (paper §3)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.core.instances import QTPLIGHT
from repro.core.receiver import QtpReceiver
from repro.core.sender import QtpSender
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.metrics.recorder import FlowRecorder
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.sim.packet import TfrcDataHeader
from repro.tfrc.loss_history import LossEventEstimator
from repro.topo import ChannelSpec, ScenarioSpec, build, chain_spec


class _ShadowReceiver(QtpReceiver):
    """QTPlight receiver that *also* runs a silent RFC 3448 estimator.

    The shadow estimator sees exactly the packet stream the receiver
    sees, providing the ground-truth receiver-side loss event rate that
    the sender-side estimate is compared against.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shadow = LossEventEstimator()

    def receive(self, packet) -> None:  # noqa: D102 - see base class
        header = packet.header
        if isinstance(header, TfrcDataHeader):
            self.shadow.on_packet(
                header.seq, self.sim.now, max(header.rtt_estimate, 1e-6)
            )
        super().receive(packet)


@dataclass
class EstimationAccuracyResult(ScenarioResult):
    """Sender-side vs receiver-side loss event rate on one stream."""

    loss_rate: float
    samples: List[Tuple[float, float, float]]  # (time, p_sender, p_shadow)
    mean_p_sender: float
    mean_p_shadow: float
    mean_abs_rel_error: float
    goodput_bps: float


@register(
    "estimation_accuracy",
    grid={"loss_rate": (0.005, 0.02, 0.05, 0.1)},
)
def estimation_accuracy_scenario(
    loss_rate: float,
    rate_bps: float = 2e6,
    duration: float = 60.0,
    warmup: float = 10.0,
    sample_period: float = 0.5,
    seed: int = 0,
) -> EstimationAccuracyResult:
    """Run QTPlight with a shadow receiver-side estimator (paper §3).

    Samples both loss-event-rate estimates every ``sample_period``
    seconds and reports their agreement over the post-warmup window.
    """
    sim = Simulator(seed=seed)
    lossy = ChannelSpec(kind="bernoulli", loss_rate=loss_rate, rng_stream="loss")
    shape = chain_spec(
        1, rate_bps=rate_bps, delay=0.02, channel=lossy if loss_rate > 0 else None
    )
    net = build(sim, ScenarioSpec("estimation_accuracy", shape)).net
    rec = FlowRecorder()
    # audit skips would register as losses at the shadow estimator but
    # not at the sender, biasing the very comparison we are making
    profile = replace(QTPLIGHT, audit_skip_interval=0)
    sender = QtpSender(sim, dst="h1", profile=profile)
    receiver = _ShadowReceiver(sim, profile=profile, recorder=rec)
    sender.attach(net.node("h0"), "flow")
    receiver.attach(net.node("h1"), "flow")
    sender.start()
    samples: List[Tuple[float, float, float]] = []

    def sample() -> None:
        assert sender.estimator is not None
        samples.append(
            (
                sim.now,
                sender.estimator.loss_event_rate(),
                receiver.shadow.loss_event_rate(),
            )
        )
        if sim.now + sample_period <= duration:
            sim.schedule(sample_period, sample)

    sim.schedule(sample_period, sample)
    sim.run(until=duration)
    steady = [s for s in samples if s[0] >= warmup and s[2] > 0]
    mean_s = fold_sum(s[1] for s in steady) / len(steady) if steady else 0.0
    mean_r = fold_sum(s[2] for s in steady) / len(steady) if steady else 0.0
    errors = [abs(s[1] - s[2]) / s[2] for s in steady]
    return EstimationAccuracyResult(
        loss_rate=loss_rate,
        samples=samples,
        mean_p_sender=mean_s,
        mean_p_shadow=mean_r,
        mean_abs_rel_error=fold_sum(errors) / len(errors) if errors else 0.0,
        goodput_bps=rec.mean_rate_bps(warmup, duration),
    )
