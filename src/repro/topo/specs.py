"""Frozen declarative specs for topologies and scenarios.

A scenario is *data*: a :class:`TopologySpec` (links carrying
:class:`QueueSpec` disciplines and :class:`MarkerSpec` edge
conditioners) plus an ordered tuple of :class:`FlowSpec` transports.
The :func:`repro.topo.build.build` compiler turns a
:class:`ScenarioSpec` into live simulation objects in a pinned,
documented order, so two identical specs always produce bit-identical
runs.

Everything here is a frozen dataclass with JSON-scalar-or-spec fields:
specs are hashable, comparable, and printable, which is what lets
experiment modules share one ``t1_dumbbell_spec()`` instead of four
drifting copies of the same builder code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.fluid.specs import BackgroundLoadSpec

#: Queue disciplines understood by the compiler.
QUEUE_KINDS = ("droptail", "red", "rio")

#: Loss/delay channel models understood by the compiler (see
#: :mod:`repro.netem.channels`).  ``none`` compiles to no channel —
#: the explicit way to strip the reused forward channel from a duplex
#: link's reverse direction.
CHANNEL_KINDS = ("none", "bernoulli", "gilbert_elliott", "jitter")

#: Transports understood by the compiler.  ``tcp`` builds the SACK TCP
#: baseline; the others build QTP endpoints with the matching profile
#: (see :func:`repro.topo.build._profile_for`).
TRANSPORTS = ("tcp", "tfrc", "gtfrc", "qtpaf")


@dataclass(frozen=True)
class QueueSpec:
    """One queue discipline instance (a fresh queue per link direction).

    ``None`` parameters defer to the discipline's own defaults in
    :mod:`repro.sim.queues`; only non-``None`` values are passed
    through, so queue-class defaults stay defined in exactly one place.

    ``mean_pkt_time`` (RED/RIO idle-decay constant) defaults to the
    transmission time of a ``mean_pkt_bytes`` packet at the owning
    link's rate — the convention every T1 scaffold used, now computed
    in one place.

    ``background`` attaches an aggregate fluid cross-traffic model
    (:class:`repro.fluid.specs.BackgroundLoadSpec`) to every queue
    instance compiled from this spec — one independent
    :class:`~repro.fluid.source.FluidSource` per link direction.  A
    ``LinkSpec.background`` overrides it for that link's forward
    direction.
    """

    kind: str = "droptail"
    capacity_packets: Optional[int] = None
    capacity_bytes: Optional[int] = None  # droptail only
    # RED parameters
    min_th: Optional[float] = None
    max_th: Optional[float] = None
    max_p: Optional[float] = None
    # RIO parameters (per-precedence RED curves)
    in_min_th: Optional[float] = None
    in_max_th: Optional[float] = None
    in_max_p: Optional[float] = None
    out_min_th: Optional[float] = None
    out_max_th: Optional[float] = None
    out_max_p: Optional[float] = None
    weight: Optional[float] = None
    mean_pkt_time: Optional[float] = None
    mean_pkt_bytes: float = 1000.0
    rng_stream: str = "rio"
    background: Optional[BackgroundLoadSpec] = None

    #: Which optional fields each discipline consumes (beyond
    #: ``capacity_packets``); anything else set is a spec typo.
    _KIND_FIELDS = {
        "droptail": frozenset({"capacity_bytes"}),
        "red": frozenset({"min_th", "max_th", "max_p", "weight",
                          "mean_pkt_time", "mean_pkt_bytes"}),
        "rio": frozenset({"in_min_th", "in_max_th", "in_max_p",
                          "out_min_th", "out_max_th", "out_max_p",
                          "weight", "mean_pkt_time", "mean_pkt_bytes"}),
    }

    def __post_init__(self) -> None:
        if self.kind not in QUEUE_KINDS:
            raise ValueError(
                f"unknown queue kind {self.kind!r}; known: {QUEUE_KINDS}"
            )
        allowed = self._KIND_FIELDS[self.kind]
        tunables = frozenset().union(*self._KIND_FIELDS.values()) - {
            "mean_pkt_bytes"  # has a non-None default; never "set"
        }
        set_fields = {
            name for name in tunables if getattr(self, name) is not None
        }
        stray = sorted(set_fields - allowed)
        if stray:
            raise ValueError(
                f"queue kind {self.kind!r} does not use parameter(s) "
                f"{stray}; they would be silently ignored"
            )


@dataclass(frozen=True)
class ChannelSpec:
    """One netem loss/jitter channel on a link direction.

    Channels draw from the named :meth:`~repro.sim.engine.Simulator.rng`
    stream (memoized per name, like queue streams), so every channel
    sharing ``rng_stream`` shares one deterministic sequence.

    ``kind`` selects the model: ``bernoulli`` (i.i.d. loss at
    ``loss_rate``), ``gilbert_elliott`` (two-state bursty loss;
    ``p_g2b``/``p_b2g`` transition and ``p_good``/``p_bad`` per-state
    loss probabilities), ``jitter`` (uniform extra delay in
    ``[0, max_jitter]``) or ``none`` (no channel — the explicit way to
    keep a duplex link's reverse direction clean).
    """

    kind: str = "bernoulli"
    loss_rate: Optional[float] = None  # bernoulli
    # Gilbert–Elliott parameters (None defers to the channel defaults)
    p_g2b: Optional[float] = None
    p_b2g: Optional[float] = None
    p_good: Optional[float] = None
    p_bad: Optional[float] = None
    max_jitter: Optional[float] = None  # jitter
    rng_stream: str = "wireless"

    #: Which tunables each kind consumes; anything else set is a typo.
    _KIND_FIELDS = {
        "none": frozenset(),
        "bernoulli": frozenset({"loss_rate"}),
        "gilbert_elliott": frozenset({"p_g2b", "p_b2g", "p_good", "p_bad"}),
        "jitter": frozenset({"max_jitter"}),
    }

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(
                f"unknown channel kind {self.kind!r}; known: {CHANNEL_KINDS}"
            )
        allowed = self._KIND_FIELDS[self.kind]
        tunables = frozenset().union(*self._KIND_FIELDS.values())
        stray = sorted(
            name
            for name in tunables
            if getattr(self, name) is not None and name not in allowed
        )
        if stray:
            raise ValueError(
                f"channel kind {self.kind!r} does not use parameter(s) "
                f"{stray}; they would be silently ignored"
            )
        if self.kind == "bernoulli" and self.loss_rate is None:
            raise ValueError("bernoulli channel requires loss_rate")
        if self.kind == "jitter" and self.max_jitter is None:
            raise ValueError("jitter channel requires max_jitter")


@dataclass(frozen=True)
class SlaSpec:
    """A service-level agreement to be realized as an srTCM edge meter."""

    flow_id: str
    committed_rate_bps: float
    burst_bytes: float = 15_000.0
    excess_burst_bytes: float = 0.0
    af_class: str = "AF1x"


@dataclass(frozen=True)
class MarkerSpec:
    """An edge conditioner installed on one (forward) link direction.

    With ``sla`` set, builds a :class:`~repro.qos.marking.ProfileMarker`
    metering that flow (every other flow gets ``default_color``); each
    occurrence of a ``MarkerSpec`` builds its *own* meter, so two
    markers for the same flow on different links model independent
    per-hop conditioning.  Without ``sla``, builds a
    :class:`~repro.qos.marking.BestEffortMarker` applying
    ``default_color`` to everything.
    """

    sla: Optional[SlaSpec] = None
    default_color: str = "red"  # Color name, lowercase


@dataclass(frozen=True)
class LinkSpec:
    """One (by default duplex) link.

    The forward direction is ``src -> dst``; ``marker`` conditions the
    forward direction only (the usual edge placement).  A duplex link
    gets a *fresh* queue instance per direction — ``reverse_queue``
    overrides the reverse discipline, otherwise ``queue`` is reused as
    the spec for both.  ``channel``/``reverse_channel`` work the same
    way: each direction compiles its own channel instance, the reverse
    reusing the forward spec unless overridden (pass
    ``ChannelSpec(kind="none")`` for a clean reverse direction) —
    matching the historical ``add_duplex_link(channel_factory=...)``
    convention of one independent channel per direction.

    ``background`` attaches aggregate fluid cross traffic
    (:class:`repro.fluid.specs.BackgroundLoadSpec`) to the *forward*
    direction, overriding any ``queue.background``; the reverse
    direction only carries background through its own queue spec
    (``reverse_queue.background``).  Compiled by ``build()`` in pinned
    link order; ``REPRO_NO_FLUID=1`` skips compilation entirely.
    """

    src: str
    dst: str
    rate_bps: float
    delay: float
    queue: QueueSpec = field(default_factory=QueueSpec)
    reverse_queue: Optional[QueueSpec] = None
    marker: Optional[MarkerSpec] = None
    channel: Optional[ChannelSpec] = None
    reverse_channel: Optional[ChannelSpec] = None
    duplex: bool = True
    background: Optional[BackgroundLoadSpec] = None

    def __post_init__(self) -> None:
        # NaN passes every ``<`` check and then poisons routing (each
        # Dijkstra comparison is false) and the event clock
        if not (math.isfinite(self.rate_bps) and self.rate_bps > 0):
            raise ValueError(
                f"link {self.src!r} -> {self.dst!r}: rate_bps must be "
                f"positive and finite (got {self.rate_bps!r})"
            )
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValueError(
                f"link {self.src!r} -> {self.dst!r}: delay must be "
                f"non-negative and finite (got {self.delay!r})"
            )


@dataclass(frozen=True)
class TopologySpec:
    """Nodes and links, in build order.

    ``nodes`` optionally pre-declares creation order; any endpoint not
    listed is created lazily when its first link is built.  The
    canonical dumbbell and chain shapes are generated, not hand-listed:
    :func:`repro.topo.generators.dumbbell_spec` and
    :func:`repro.topo.generators.chain_spec`.
    """

    links: Tuple[LinkSpec, ...]
    nodes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # a repeated directed pair would silently *replace* the earlier
        # link (and its queue/marker) inside Network — always a spec bug
        seen = set()
        for ls in self.links:
            directions = [(ls.src, ls.dst)] + ([(ls.dst, ls.src)] if ls.duplex else [])
            for pair in directions:
                if pair in seen:
                    raise ValueError(
                        f"duplicate directed link {pair[0]!r} -> {pair[1]!r} "
                        "(check duplex=True defaults)"
                    )
                seen.add(pair)


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """One transport flow: endpoints, profile, schedule.

    ``transport`` selects the stack: ``tcp`` (SACK TCP baseline),
    ``tfrc`` (stock RFC 3448), ``gtfrc`` (QoS-aware rate control only,
    no reliability) or ``qtpaf`` (the paper's full instance).
    ``target_bps`` is the AF guarantee ``g`` and is required for the
    QoS-aware transports.  ``p_scaling`` switches gTFRC to the
    loss-rate-scaling variant (the A1 ablation's smoother mechanism).

    ``start``/``stop`` schedule the sender: ``start == 0`` starts it
    during construction (the historical scaffold behaviour, which pins
    event tie-breaking), a positive ``start`` schedules it, and a
    non-``None`` ``stop`` schedules ``sender.stop``.

    ``size_bytes`` gives the flow a finite byte budget: the sender
    transmits that much application data, then stops itself once the
    budget is delivered (acknowledged for reliable transports, sent for
    unreliable ones) and records its completion time (see
    :meth:`repro.topo.build.BuiltScenario.completions`).  **Precedence
    between ``stop`` and the byte budget: whichever fires first wins.**
    A ``stop`` time cuts a still-unfinished flow off without a
    completion; a flow that exhausts its budget earlier stops then, and
    the later scheduled ``stop`` is a harmless no-op.  ``None`` (the
    default) keeps the historical unbounded bulk flow.

    Slotted, because a generated population holds one instance per flow
    (100,000 on the hybrid tier): there is no per-instance ``__dict__``.
    """

    flow_id: str
    src: str
    dst: str
    transport: str = "tcp"
    target_bps: Optional[float] = None
    record: bool = True
    start: float = 0.0
    stop: Optional[float] = None
    p_scaling: bool = False
    sack: bool = True  # tcp only
    size_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; known: {TRANSPORTS}"
            )
        if self.transport in ("gtfrc", "qtpaf") and not self.target_bps:
            raise ValueError(
                f"flow {self.flow_id!r}: transport {self.transport!r} "
                "requires target_bps (the AF guarantee g)"
            )
        if self.start < 0:
            raise ValueError(f"flow {self.flow_id!r}: start must be >= 0")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(f"flow {self.flow_id!r}: stop must be > start")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError(
                f"flow {self.flow_id!r}: size_bytes must be positive "
                f"(got {self.size_bytes!r}); use None for an unbounded flow"
            )
        # parameters that only one transport consumes must not be set
        # elsewhere — they would be silently ignored (same policy as
        # QueueSpec's kind/parameter cross-check)
        if self.p_scaling and self.transport != "gtfrc":
            raise ValueError(
                f"flow {self.flow_id!r}: p_scaling only applies to the "
                f"'gtfrc' transport, not {self.transport!r}"
            )
        if not self.sack and self.transport != "tcp":
            raise ValueError(
                f"flow {self.flow_id!r}: sack only applies to the 'tcp' "
                f"transport, not {self.transport!r}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete composable scenario: topology plus flows, in order.

    Flow order is semantic: senders start (or are scheduled) in tuple
    order, which pins simultaneous-event tie-breaking.  With no flows
    the spec compiles to a bare routed network for a caller that
    attaches endpoints ``FlowSpec`` cannot express (a feedback filter,
    cost meters, an application source).
    """

    name: str
    topology: TopologySpec
    flows: Tuple[FlowSpec, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        seen = set()
        for flow in self.flows:
            if flow.flow_id in seen:
                raise ValueError(f"duplicate flow_id {flow.flow_id!r}")
            seen.add(flow.flow_id)
