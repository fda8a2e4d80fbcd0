"""Frozen spec for aggregate background load at a queue.

A :class:`BackgroundLoadSpec` describes cross traffic as an *offered
byte rate over time* instead of as per-packet flows.  The
:class:`~repro.fluid.source.FluidSource` compiled from it modulates the
owning link's queue occupancy and service capacity in batched epochs,
so a scenario can pit its few packet-level foreground flows against a
background of thousands of modeled users at a per-epoch (not
per-packet) cost.

Three kinds:

``constant``
    A fixed offered rate (``rate_bps``) — the fluid analogue of the
    classic long-lived CBR cross-traffic aggregate.
``mmpp``
    A two-state Markov-modulated rate: dwell in a low state
    (``rate_low_bps``, mean ``mean_low_s``) and a high state
    (``rate_high_bps``, mean ``mean_high_s``), with state transitions
    sampled once per epoch from the named ``rng_stream`` — bursty
    aggregates without per-flow machinery.
``population``
    A piecewise-constant offered-load ``profile`` (bytes per epoch)
    derived from a generated :class:`repro.traffic.PopulationSpec` via
    its own arrival/size samplers (see :mod:`repro.fluid.derive`), so
    one population spec can run full-fidelity or hybrid.

The kind/parameter cross-validation follows the
:class:`repro.topo.specs.QueueSpec` convention: a tunable set for a
kind that does not consume it is an error, never silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

#: Background-load models understood by the compiler.
BACKGROUND_KINDS = ("constant", "mmpp", "population")


@dataclass(frozen=True)
class BackgroundLoadSpec:
    """Aggregate background load offered to one queue (link direction).

    Common knobs
    ------------
    ``epoch``
        Batch interval in seconds: the :class:`FluidSource` re-evaluates
        offered load, backlog and service share once per epoch.
    ``start``/``stop``
        Active window.  ``stop=None`` runs until the simulation ends
        (``population`` stops itself when its profile is exhausted and
        its backlog has drained).
    ``mean_pkt_bytes``
        Conversion between fluid backlog bytes and the virtual packet
        occupancy injected into RED/RIO averages.
    ``min_foreground_share``
        Guaranteed fraction of the link rate the packet-level foreground
        keeps even under background saturation (the fluid model's
        stand-in for FIFO service interleaving).
    ``buffer_packets``
        Cap on the virtual backlog, in packets.  ``None`` derives it
        from the owning queue: RIO's ``out_max_th``, RED's ``max_th``
        (beyond those averages the discipline would be dropping
        out-of-profile arrivals outright, so fluid backlog cannot
        realistically exceed them), or the DropTail capacity.
    ``elastic``
        How the aggregate responds to policing.  ``False`` (default)
        models an unresponsive aggregate: bytes the queue's drop curve
        or buffer refuses are gone, like UDP/CBR cross traffic.
        ``True`` models a closed-loop (TCP-like) aggregate: refused
        bytes stay *pending at the senders* and are re-offered next
        epoch — a dropped TCP segment is retransmitted, so aggregate
        demand persists until served.  Population-derived backgrounds
        (:mod:`repro.fluid.derive`) default to elastic because the
        generated flow classes they replace are TCP mice.
    """

    kind: str = "constant"
    rate_bps: Optional[float] = None  # constant
    # MMPP parameters (two-state Markov-modulated rate)
    rate_low_bps: Optional[float] = None
    rate_high_bps: Optional[float] = None
    mean_low_s: Optional[float] = None
    mean_high_s: Optional[float] = None
    # population: offered bytes per epoch, derived from a PopulationSpec
    profile: Optional[Tuple[float, ...]] = None
    # common
    epoch: float = 0.05
    start: float = 0.0
    stop: Optional[float] = None
    mean_pkt_bytes: float = 1000.0
    min_foreground_share: float = 0.05
    buffer_packets: Optional[int] = None
    elastic: bool = False
    rng_stream: str = "fluid"

    #: Which optional tunables each kind consumes; anything else set is
    #: a spec typo (the QueueSpec/ChannelSpec validation convention).
    _KIND_FIELDS = {
        "constant": frozenset({"rate_bps"}),
        "mmpp": frozenset(
            {"rate_low_bps", "rate_high_bps", "mean_low_s", "mean_high_s"}
        ),
        "population": frozenset({"profile"}),
    }

    def __post_init__(self) -> None:
        if self.kind not in BACKGROUND_KINDS:
            raise ValueError(
                f"unknown background kind {self.kind!r}; "
                f"known: {BACKGROUND_KINDS}"
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
                f"background kind {self.kind!r} does not use parameter(s) "
                f"{stray}; they would be silently ignored"
            )
        if self.kind == "constant":
            if self.rate_bps is None or self.rate_bps < 0:
                raise ValueError(
                    "constant background requires a non-negative rate_bps"
                )
        elif self.kind == "mmpp":
            missing = [
                name
                for name in ("rate_high_bps", "mean_low_s", "mean_high_s")
                if getattr(self, name) is None
            ]
            if missing:
                raise ValueError(f"mmpp background requires {missing}")
            if self.mean_low_s <= 0 or self.mean_high_s <= 0:
                raise ValueError("mmpp dwell times must be positive")
            low = self.rate_low_bps if self.rate_low_bps is not None else 0.0
            if low < 0 or self.rate_high_bps < 0:
                raise ValueError("mmpp rates must be non-negative")
        else:  # population
            if self.profile is None:
                raise ValueError(
                    "population background requires a profile "
                    "(see repro.fluid.derive.add_population_background)"
                )
            # written so that nan (every comparison false) is rejected
            if not all(0 <= b < math.inf for b in self.profile):
                raise ValueError(
                    "profile entries must be finite, non-negative bytes"
                )
        if self.epoch <= 0:
            raise ValueError("epoch must be positive")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("stop must be > start")
        if self.mean_pkt_bytes <= 0:
            raise ValueError("mean_pkt_bytes must be positive")
        if not 0.0 < self.min_foreground_share <= 1.0:
            raise ValueError("min_foreground_share must be in (0, 1]")
        if self.buffer_packets is not None and self.buffer_packets < 0:
            raise ValueError("buffer_packets must be >= 0")
