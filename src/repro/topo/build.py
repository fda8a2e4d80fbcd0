"""The spec compiler: ``build(sim, spec) -> BuiltScenario``.

The build order is **pinned** and must not be reordered — goldens and
benchmark tables fingerprint it (see
``tests/test_determinism_golden.py``):

1. **Nodes**: every name in ``spec.topology.nodes`` first, then lazily
   from link endpoints (forward ``src`` before ``dst``), in link order.
2. **Links**, in spec order.  Per link: the forward marker (its meter
   is built here, one fresh meter per ``MarkerSpec`` occurrence), the
   forward queue, the forward channel, the forward link; then, for
   duplex links, the reverse queue, reverse channel and reverse link.
   RED/RIO queues and netem channels draw their randomness from the
   named :meth:`~repro.sim.engine.Simulator.rng` stream
   (``QueueSpec.rng_stream`` / ``ChannelSpec.rng_stream``), which is
   memoized per name, so every element sharing a stream name shares
   one deterministic sequence.  A link with fluid background
   (``LinkSpec.background`` overriding ``QueueSpec.background``)
   compiles its :class:`~repro.fluid.source.FluidSource` **after both
   directions of that link**, forward direction then reverse — the
   source schedules its first epoch event here, so fluid events are
   tie-broken before every flow-start event.  ``REPRO_NO_FLUID=1``
   (sampled once per ``build``, mirroring ``REPRO_NO_POOL``) skips
   fluid compilation entirely: no events, no RNG streams, a
   byte-identical foreground-only run.
3. **Routes**: one ``compute_routes()`` pass, then a pre-flight that
   every flow's ``src -> dst`` and ``dst -> src`` (ACK) path exists.
4. **Flows**, in spec order.  Per flow: sender constructed, receiver
   constructed, sender attached, receiver attached, then the schedule
   (``start == 0`` starts the sender immediately — *during* the build,
   exactly like the historical scaffolds — otherwise ``sim.schedule``
   entries are created here, in flow order, pinning event-heap
   tie-breaking for simultaneous starts).

Nothing before ``sim.run()`` draws from any random stream, so the only
determinism-relevant orders are the queue/stream bindings of step 2 and
the schedule calls of step 4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.core.instances import QTPAF, TFRC_MEDIA
from repro.fluid.source import FluidSource
from repro.core.profile import ReliabilityMode, TransportProfile
from repro.core.receiver import QtpReceiver
from repro.core.sender import QtpSender
from repro.metrics.fct import FlowCompletion
from repro.metrics.recorder import FlowRecorder
from repro.qos.marking import BestEffortMarker, ProfileMarker
from repro.qos.sla import ServiceLevelAgreement
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Color
from repro.sim.queues import DropTailQueue, RedQueue, RioQueue
from repro.sim.topology import Network
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.tfrc.gtfrc import GtfrcRateController
from repro.netem.channels import (
    BernoulliLossChannel,
    GilbertElliottChannel,
    JitterChannel,
)
from repro.topo.specs import (
    ChannelSpec,
    FlowSpec,
    LinkSpec,
    MarkerSpec,
    QueueSpec,
    ScenarioSpec,
)

Sender = Union[QtpSender, TcpSender]
Receiver = Union[QtpReceiver, TcpReceiver]

#: Opt-in engine-level packet tracing (the observability plane):
#: ``REPRO_TRACE=1`` attaches one :class:`repro.sim.trace.PacketTracer`
#: to every link of every built scenario, reachable as
#: ``BuiltScenario.tracer``.  Off by default — no wrapper objects are
#: created and the packet path is untouched.
TRACE_ENV = "REPRO_TRACE"

#: Kill-switch for the fluid background subsystem (mirrors
#: ``REPRO_NO_POOL``): with ``REPRO_NO_FLUID=1`` every ``background``
#: field is ignored at compile time — the scenario runs its declared
#: packet-level flows only, byte-identical to a spec with no
#: background at all.  The debugging lever for "is the fluid model the
#: thing that changed this number?".
NO_FLUID_ENV = "REPRO_NO_FLUID"


def _tracing_requested() -> bool:
    return os.environ.get(TRACE_ENV, "") not in ("", "0")


def _fluid_disabled() -> bool:
    return os.environ.get(NO_FLUID_ENV, "") not in ("", "0")


@dataclass
class BuiltScenario:
    """Live objects compiled from a :class:`ScenarioSpec`.

    Dictionaries are keyed by flow id (``recorders``, ``senders``,
    ``receivers``, ``slas``) or by ``"src->dst"`` (``markers``).  Only
    flows with ``record=True`` appear in ``recorders``.  When a flow
    holds several SLAs (per-hop re-conditioning, e.g. the parking lot),
    ``slas`` keeps the *first* one in link-spec order — presets list
    the domain-edge link first so that is the flow's primary contract;
    every meter remains reachable via ``markers["src->dst"].meter``.
    """

    spec: ScenarioSpec
    net: Network
    recorders: Dict[str, FlowRecorder] = field(default_factory=dict)
    senders: Dict[str, Sender] = field(default_factory=dict)
    receivers: Dict[str, Receiver] = field(default_factory=dict)
    markers: Dict[str, Union[ProfileMarker, BestEffortMarker]] = field(
        default_factory=dict
    )
    slas: Dict[str, ServiceLevelAgreement] = field(default_factory=dict)
    #: fluid background sources keyed ``"src->dst"`` (empty unless the
    #: spec carries ``background`` fields and REPRO_NO_FLUID is unset)
    fluid_sources: Dict[str, "FluidSource"] = field(default_factory=dict)
    #: the opt-in PacketTracer attached to every link when REPRO_TRACE
    #: was set at build time; None (the default) otherwise
    tracer: Optional[object] = None

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst``."""
        return self.net.link(src, dst)

    def queue(self, src: str, dst: str):
        """The queue of the directed link ``src -> dst``."""
        return self.net.link(src, dst).queue

    def recorder(self, flow_id: str) -> FlowRecorder:
        """The recorder of ``flow_id``; KeyError for unrecorded flows."""
        return self.recorders[flow_id]

    def completions(self) -> Tuple[FlowCompletion, ...]:
        """Finished finite flows, in flow-spec order.

        One :class:`~repro.metrics.fct.FlowCompletion` per
        byte-budgeted flow (``FlowSpec.size_bytes``) whose sender has
        stamped ``completed_at``; still-running and unbounded flows are
        absent.  Feed the result to
        :func:`repro.metrics.fct.fct_summary`.
        """
        done = []
        for fs in self.spec.flows:
            if fs.size_bytes is None:
                continue
            completed_at = self.senders[fs.flow_id].completed_at
            if completed_at is not None:
                done.append(
                    FlowCompletion(
                        fs.flow_id, fs.start, completed_at, fs.size_bytes
                    )
                )
        return tuple(done)


def build(sim: Simulator, spec: ScenarioSpec) -> BuiltScenario:
    """Compile ``spec`` into a ready-to-run scenario (see module doc)."""
    net = Network(sim)
    built = BuiltScenario(spec=spec, net=net)
    fluid_enabled = not _fluid_disabled()  # sampled once per build
    # 1. nodes: declared order first, then lazily from links
    for name in spec.topology.nodes:
        net.add_node(name)
    # 2. links in spec order
    for ls in spec.topology.links:
        marker = None
        if ls.marker is not None:
            marker = _build_marker(ls.marker, built)
            built.markers[f"{ls.src}->{ls.dst}"] = marker
        net.add_simplex_link(
            ls.src,
            ls.dst,
            ls.rate_bps,
            ls.delay,
            queue=_build_queue(ls.queue, sim, ls.rate_bps),
            channel=_build_channel(ls.channel, sim),
            marker=marker,
        )
        if ls.duplex:
            reverse = ls.reverse_queue if ls.reverse_queue is not None else ls.queue
            reverse_channel = (
                ls.reverse_channel if ls.reverse_channel is not None else ls.channel
            )
            net.add_simplex_link(
                ls.dst,
                ls.src,
                ls.rate_bps,
                ls.delay,
                queue=_build_queue(reverse, sim, ls.rate_bps),
                channel=_build_channel(reverse_channel, sim),
            )
        # fluid background, after both directions of this link exist:
        # forward (LinkSpec.background overrides QueueSpec.background),
        # then reverse (its own queue spec only).  Each FluidSource
        # schedules its first epoch event at construction, in this
        # pinned order.
        if fluid_enabled:
            forward_bg = (
                ls.background if ls.background is not None
                else ls.queue.background
            )
            if forward_bg is not None:
                built.fluid_sources[f"{ls.src}->{ls.dst}"] = FluidSource(
                    sim, net.link(ls.src, ls.dst), forward_bg
                )
            if ls.duplex and reverse.background is not None:
                built.fluid_sources[f"{ls.dst}->{ls.src}"] = FluidSource(
                    sim, net.link(ls.dst, ls.src), reverse.background
                )
    # 3. routes
    net.compute_routes()
    _check_routable(spec, net)
    # 4. flows in spec order
    for fs in spec.flows:
        recorder = None
        if fs.record:
            recorder = FlowRecorder(fs.flow_id)
            built.recorders[fs.flow_id] = recorder
        sender, receiver = _build_flow(sim, net, fs, recorder)
        built.senders[fs.flow_id] = sender
        built.receivers[fs.flow_id] = receiver
        if fs.start <= 0.0:
            sender.start()
        else:
            sim.schedule(fs.start, sender.start)
        if fs.stop is not None:
            sim.schedule(fs.stop, sender.stop)
    # 5. (opt-in observability; AFTER the pinned steps above) attach a
    # packet tracer to every link.  The wrappers only observe — no
    # random draws, no schedule calls — so the golden event order is
    # untouched even when tracing is on.
    if _tracing_requested():
        from repro.sim.trace import PacketTracer

        tracer = PacketTracer()
        for link in net.links:
            tracer.attach(link)
        built.tracer = tracer
    return built


def _check_routable(spec: ScenarioSpec, net: Network) -> None:
    """Reject a flow whose data or ACK path has no route.

    Without this the same mistake surfaces as a ``RoutingError`` from
    the first ``sender.start()`` — mid-run for a scheduled start or a
    missing reverse path.  Table lookups only: no events, no draws.
    """
    checked = set()
    for fs in spec.flows:
        pair = (fs.src, fs.dst)
        if pair in checked:
            continue
        checked.add(pair)
        for direction, (here, there) in (
            ("forward", pair), ("reverse (ACK)", pair[::-1])
        ):
            node = net.nodes.get(here)
            if node is None or there not in node.next_hop:
                raise ValueError(
                    f"scenario {spec.name!r}: flow {fs.flow_id!r} has no "
                    f"{direction} route {here!r} -> {there!r}"
                )


# ----------------------------------------------------------------------
# element compilers
# ----------------------------------------------------------------------
def _build_queue(qs: QueueSpec, sim: Simulator, link_rate_bps: float):
    """Instantiate one queue; ``None`` spec fields keep class defaults."""
    if qs.kind == "droptail":
        # pass only the set fields so DropTailQueue's own defaults hold
        # (a bytes-only bound keeps the default 100-packet bound too)
        kwargs = {}
        if qs.capacity_packets is not None:
            kwargs["capacity_packets"] = qs.capacity_packets
        if qs.capacity_bytes is not None:
            kwargs["capacity_bytes"] = qs.capacity_bytes
        return DropTailQueue(**kwargs)
    kwargs = {}
    if qs.kind == "red":
        fields = ("min_th", "max_th", "max_p")
        cls = RedQueue
    else:  # rio
        fields = (
            "in_min_th", "in_max_th", "in_max_p",
            "out_min_th", "out_max_th", "out_max_p",
        )
        cls = RioQueue
    for name in fields + ("weight", "capacity_packets"):
        value = getattr(qs, name)
        if value is not None:
            kwargs[name] = value
    mean_pkt_time = qs.mean_pkt_time
    if mean_pkt_time is None:
        mean_pkt_time = qs.mean_pkt_bytes * 8 / link_rate_bps
    return cls(
        rng=sim.rng(qs.rng_stream), mean_pkt_time=mean_pkt_time, **kwargs
    )


def _build_channel(cs: Optional[ChannelSpec], sim: Simulator):
    """Instantiate one link-direction channel (``None``/"none" → none).

    Every channel draws from the named ``sim.rng(cs.rng_stream)``
    stream; ``None`` spec fields keep the channel class defaults.
    """
    if cs is None or cs.kind == "none":
        return None
    rng = sim.rng(cs.rng_stream)
    if cs.kind == "bernoulli":
        return BernoulliLossChannel(cs.loss_rate, rng=rng)
    if cs.kind == "gilbert_elliott":
        kwargs = {
            name: getattr(cs, name)
            for name in ("p_g2b", "p_b2g", "p_good", "p_bad")
            if getattr(cs, name) is not None
        }
        return GilbertElliottChannel(rng=rng, **kwargs)
    return JitterChannel(cs.max_jitter, rng=rng)  # jitter


def _build_marker(ms: MarkerSpec, built: BuiltScenario):
    """Instantiate one marker (and its meter/SLA, when profiled)."""
    color = Color[ms.default_color.upper()]
    if ms.sla is None:
        return BestEffortMarker(color=color)
    sla = ServiceLevelAgreement(
        flow_id=ms.sla.flow_id,
        committed_rate_bps=ms.sla.committed_rate_bps,
        burst_bytes=ms.sla.burst_bytes,
        excess_burst_bytes=ms.sla.excess_burst_bytes,
        af_class=ms.sla.af_class,
    )
    built.slas.setdefault(ms.sla.flow_id, sla)
    return ProfileMarker(
        sla.build_meter(), flow_id=ms.sla.flow_id, default_color=color
    )


def _profile_for(fs: FlowSpec) -> TransportProfile:
    """The canonical profile of a non-TCP transport label."""
    if fs.transport == "qtpaf":
        return QTPAF(fs.target_bps)
    if fs.transport == "gtfrc":
        return QTPAF(
            fs.target_bps, name="gTFRC", reliability=ReliabilityMode.NONE
        )
    return TFRC_MEDIA  # tfrc


def _build_flow(
    sim: Simulator,
    net: Network,
    fs: FlowSpec,
    recorder: Optional[FlowRecorder],
) -> Tuple[Sender, Receiver]:
    """Construct/attach one flow's endpoints (sender first, see module doc)."""
    if fs.transport == "tcp":
        sender: Sender = TcpSender(
            sim, dst=fs.dst, sack=fs.sack, size_bytes=fs.size_bytes
        )
        receiver: Receiver = TcpReceiver(sim, recorder=recorder, sack=fs.sack)
    else:
        profile = _profile_for(fs)
        controller = None
        if fs.transport == "gtfrc" and fs.p_scaling:
            controller = GtfrcRateController(
                fs.target_bps / 8, profile.segment_size, p_scaling=True
            )
        sender = QtpSender(
            sim,
            dst=fs.dst,
            profile=profile,
            controller=controller,
            size_bytes=fs.size_bytes,
        )
        receiver = QtpReceiver(sim, profile=profile, recorder=recorder)
    sender.attach(net.node(fs.src), fs.flow_id)
    receiver.attach(net.node(fs.dst), fs.flow_id)
    return sender, receiver
