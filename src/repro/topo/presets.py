"""Canonical scenario specs: the shared T1 dumbbell and the PR 3 shapes.

Every dumbbell and chain here takes its links from the shape generators
(:func:`repro.topo.generators.dumbbell_spec`,
:func:`repro.topo.generators.chain_spec`); a preset adds the queue
discipline, the markers and the flows.

:func:`t1_dumbbell_spec` is the single source of the DiffServ AF
dumbbell that ``af_assurance``, ``gtfrc_ablation``, ``convergence`` and
the benchmark network trace probe previously each rebuilt by hand; its
construction order (compiled by :func:`repro.topo.build.build`)
reproduces those scaffolds bit-for-bit — the determinism goldens pin
this.

The other presets open the multi-bottleneck workloads:

* :func:`parking_lot_spec` — two RIO bottlenecks in series with
  independent per-hop SLAs and per-hop TCP cross traffic;
* :func:`reverse_path_chain_spec` — an AF chain whose *reverse* path
  (the assured flow's feedback/ACK path) is congested by TCP;
* :func:`hetero_sla_dumbbell_spec` — several assured flows with
  different guarantees competing inside one AF class.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.topo.generators import RIO, chain_spec, dumbbell_spec
from repro.topo.specs import (
    ChannelSpec,
    FlowSpec,
    LinkSpec,
    MarkerSpec,
    ScenarioSpec,
    SlaSpec,
    TopologySpec,
)


def t1_dumbbell_spec(
    protocol: str,
    target_bps: float,
    n_cross: int = 4,
    *,
    bottleneck_bps: float = 10e6,
    bottleneck_delay: float = 0.02,
    access_rate: float = 100e6,
    access_delay: float = 0.002,
    assured_access_delay: Optional[float] = None,
    burst_bytes: float = 30_000.0,
    cross_start: float = 0.0,
    p_scaling: bool = False,
    cross_record: bool = False,
) -> ScenarioSpec:
    """The T1 AF dumbbell: one assured flow vs greedy TCP cross traffic.

    Pair 0 carries the assured flow (srTCM marker on its ``s0 -> left``
    access link, transport ``protocol``); pairs 1..n carry best-effort
    TCP flows ``x1..xn`` which start at ``cross_start`` (0 = with the
    assured flow; the convergence experiment steps them in later).
    """
    delay0 = assured_access_delay if assured_access_delay is not None else access_delay
    assured = MarkerSpec(sla=SlaSpec("assured", target_bps, burst_bytes=burst_bytes))
    flows = [
        FlowSpec(
            "assured",
            "s0",
            "d0",
            transport=protocol,
            target_bps=target_bps,
            p_scaling=p_scaling,
        )
    ]
    for i in range(1, 1 + n_cross):
        flows.append(
            FlowSpec(
                f"x{i}",
                f"s{i}",
                f"d{i}",
                transport="tcp",
                start=cross_start,
                record=cross_record,
            )
        )
    return ScenarioSpec(
        name="t1_dumbbell",
        topology=dumbbell_spec(
            1 + n_cross,
            bottleneck_bps=bottleneck_bps,
            bottleneck_delay=bottleneck_delay,
            bottleneck_queue=RIO,
            access_rate=access_rate,
            access_delays=[delay0] + [access_delay] * n_cross,
            access_markers=[assured] + [None] * n_cross,
        ),
        flows=tuple(flows),
        description="AF dumbbell: assured flow + TCP cross on one RIO bottleneck",
    )


def lossy_chain_spec(
    protocol: str,
    loss_rate: float,
    n_hops: int = 3,
    *,
    hop_rate_bps: float = 2e6,
    hop_delay: float = 0.005,
    bursty: bool = False,
    rng_stream: str = "wireless",
) -> ScenarioSpec:
    """The F2 lossy multi-hop chain: one flow over per-hop random loss.

    ``h0 -> h1 -> ... -> hN`` with an independent loss channel on
    *every* link direction (each drawing from the shared
    ``rng_stream``).  ``bursty=True`` selects a Gilbert–Elliott channel
    tuned to the same steady-state loss rate (fixed bad-state dynamics,
    ``p_g2b`` solved for the target); otherwise losses are Bernoulli.
    A non-positive ``loss_rate`` leaves the chain clean.
    """
    channel = None
    if loss_rate > 0:
        if bursty:
            # fix the bad-state dynamics, solve p_g2b for the target rate
            p_bad, p_b2g = 0.5, 0.25
            p_g2b = loss_rate * p_b2g / max(1e-9, (p_bad - loss_rate))
            channel = ChannelSpec(
                kind="gilbert_elliott",
                p_g2b=min(0.9, p_g2b),
                p_b2g=p_b2g,
                p_bad=p_bad,
                rng_stream=rng_stream,
            )
        else:
            channel = ChannelSpec(
                kind="bernoulli", loss_rate=loss_rate, rng_stream=rng_stream
            )
    return ScenarioSpec(
        name="lossy_chain",
        topology=chain_spec(
            n_hops, rate_bps=hop_rate_bps, delay=hop_delay, channel=channel
        ),
        flows=(FlowSpec("flow", "h0", f"h{n_hops}", transport=protocol),),
        description="one flow over an H-hop chain with per-hop random loss",
    )


def parking_lot_spec(
    protocol: str,
    target_bps: float,
    n_cross_a: int = 3,
    n_cross_b: int = 3,
    *,
    bottleneck_bps: float = 10e6,
    hop_delay: float = 0.01,
    access_rate: float = 100e6,
    access_delay: float = 0.002,
    hop2_target_bps: Optional[float] = None,
    burst_bytes: float = 30_000.0,
    cross_record: bool = False,
) -> ScenarioSpec:
    """Parking lot: the assured flow crosses *two* RIO bottlenecks.

    ``s0 -> r0 -> r1 -> r2 -> d0``, with independent TCP cross bursts on
    each hop (``a*`` on ``r0 -> r1``, ``b*`` on ``r1 -> r2``).  The flow
    holds one SLA per hop: the edge meter on ``s0 -> r0`` and a fresh
    re-conditioning meter on ``r1 -> r2`` (``hop2_target_bps``, default
    the same guarantee), so in-profile protection is decided hop by hop
    — the multi-domain DiffServ picture.
    """
    hop2 = hop2_target_bps if hop2_target_bps is not None else target_bps
    links = [
        # the edge link comes first so built.slas["assured"] is the
        # flow's primary (domain-edge) contract, not the hop-2 re-meter
        LinkSpec(
            "s0",
            "r0",
            access_rate,
            access_delay,
            marker=MarkerSpec(
                sla=SlaSpec("assured", target_bps, burst_bytes=burst_bytes)
            ),
        ),
        LinkSpec("r0", "r1", bottleneck_bps, hop_delay, queue=RIO),
        LinkSpec(
            "r1",
            "r2",
            bottleneck_bps,
            hop_delay,
            queue=RIO,
            marker=MarkerSpec(
                sla=SlaSpec("assured", hop2, burst_bytes=burst_bytes)
            ),
        ),
        LinkSpec("r2", "d0", access_rate, access_delay),
    ]
    flows = [
        FlowSpec("assured", "s0", "d0", transport=protocol, target_bps=target_bps)
    ]
    for i in range(1, 1 + n_cross_a):
        links.append(LinkSpec(f"sa{i}", "r0", access_rate, access_delay))
        links.append(LinkSpec("r1", f"da{i}", access_rate, access_delay))
        flows.append(
            FlowSpec(
                f"a{i}", f"sa{i}", f"da{i}", transport="tcp", record=cross_record
            )
        )
    for i in range(1, 1 + n_cross_b):
        links.append(LinkSpec(f"sb{i}", "r1", access_rate, access_delay))
        links.append(LinkSpec("r2", f"db{i}", access_rate, access_delay))
        flows.append(
            FlowSpec(
                f"b{i}", f"sb{i}", f"db{i}", transport="tcp", record=cross_record
            )
        )
    return ScenarioSpec(
        name="parking_lot",
        topology=TopologySpec(links=tuple(links)),
        flows=tuple(flows),
        description="assured flow over two RIO bottlenecks with per-hop SLAs",
    )


def reverse_path_chain_spec(
    protocol: str,
    target_bps: float,
    n_hops: int = 3,
    n_reverse: int = 4,
    *,
    rate_bps: float = 10e6,
    hop_delay: float = 0.01,
    reverse_start: float = 0.0,
    reverse_stop: Optional[float] = None,
    burst_bytes: float = 30_000.0,
) -> ScenarioSpec:
    """An AF chain whose reverse (feedback) path carries TCP cross traffic.

    The assured flow runs ``h0 -> hN``; ``n_reverse`` greedy TCP flows
    run ``hN -> h0`` over the *same* duplex hops, congesting the RIO
    queues that the assured flow's feedback reports traverse — the
    ACK-path congestion case that stresses gTFRC's control loop.
    """
    hops = chain_spec(n_hops, rate_bps=rate_bps, delay=hop_delay, queue=RIO).links
    edge = MarkerSpec(sla=SlaSpec("assured", target_bps, burst_bytes=burst_bytes))
    last = f"h{n_hops}"
    flows = [
        FlowSpec("assured", "h0", last, transport=protocol, target_bps=target_bps)
    ]
    for j in range(1, 1 + n_reverse):
        flows.append(
            FlowSpec(
                f"rev{j}",
                last,
                "h0",
                transport="tcp",
                start=reverse_start,
                stop=reverse_stop,
            )
        )
    return ScenarioSpec(
        name="reverse_path_chain",
        topology=TopologySpec(links=(replace(hops[0], marker=edge),) + hops[1:]),
        flows=tuple(flows),
        description="AF chain with TCP cross traffic on the feedback path",
    )


def hetero_sla_dumbbell_spec(
    protocol: str,
    targets_bps: Sequence[float],
    n_cross: int = 2,
    *,
    bottleneck_bps: float = 10e6,
    bottleneck_delay: float = 0.02,
    access_rate: float = 100e6,
    access_delay: float = 0.002,
    burst_bytes: float = 30_000.0,
) -> ScenarioSpec:
    """Several assured flows with *different* guarantees in one AF class.

    Flow ``af{i}`` holds an SLA of ``targets_bps[i]`` (its own srTCM
    meter on its access link); all compete for one RIO bottleneck,
    alongside ``n_cross`` best-effort TCP flows.  The question is
    whether each guarantee holds independently of its size.
    """
    targets: Tuple[float, ...] = tuple(targets_bps)
    if not targets:
        raise ValueError("need at least one assured target")
    n = len(targets)
    flows = [
        FlowSpec(f"af{i}", f"s{i}", f"d{i}", transport=protocol, target_bps=target)
        for i, target in enumerate(targets)
    ]
    for j in range(n_cross):
        flows.append(
            FlowSpec(f"x{j + 1}", f"s{n + j}", f"d{n + j}", transport="tcp")
        )
    markers = [
        MarkerSpec(sla=SlaSpec(f"af{i}", target, burst_bytes=burst_bytes))
        for i, target in enumerate(targets)
    ]
    return ScenarioSpec(
        name="hetero_sla",
        topology=dumbbell_spec(
            n + n_cross,
            bottleneck_bps=bottleneck_bps,
            bottleneck_delay=bottleneck_delay,
            bottleneck_queue=RIO,
            access_rate=access_rate,
            access_delay=access_delay,
            access_markers=markers + [None] * n_cross,
        ),
        flows=tuple(flows),
        description="mixed-rate SLAs competing inside one AF class",
    )
