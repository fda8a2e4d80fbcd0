"""Frozen declarative specs for generated traffic populations.

A *population* is workload-as-data: an arrival process
(:class:`ArrivalSpec`), a mix of flow classes (:class:`FlowClassSpec`,
each carrying a transport and a size distribution
:class:`SizeSpec`) and an endpoint pool, bundled into a
:class:`PopulationSpec`.  The expander
(:func:`repro.traffic.population.expand_population`) turns one into an
ordinary ``tuple[FlowSpec, ...]`` — generated workloads are built,
seeded, golden-pinned and swept exactly like hand-enumerated ones.

Validation follows the :class:`repro.topo.specs.QueueSpec` /
:class:`~repro.topo.specs.ChannelSpec` convention: each ``kind``
declares which tunables it consumes and anything else set is rejected
instead of silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.topo.specs import TRANSPORTS

#: Arrival processes understood by the samplers.
ARRIVAL_KINDS = ("poisson", "onoff", "flash_crowd")

#: Flow-size distributions understood by the samplers.
SIZE_KINDS = ("fixed", "exponential", "pareto")


@dataclass(frozen=True)
class ArrivalSpec:
    """One flow-arrival process.

    ``kind`` selects the model:

    * ``poisson`` — homogeneous Poisson arrivals at ``rate_per_s``;
    * ``onoff`` — bursty arrivals: exponentially distributed ON periods
      (mean ``mean_on`` seconds) during which flows arrive as a Poisson
      process at ``rate_per_s``, separated by silent OFF gaps (mean
      ``mean_off``);
    * ``flash_crowd`` — a non-homogeneous Poisson ramp: the rate is
      ``base_rate_per_s`` until ``ramp_start``, climbs linearly to
      ``peak_rate_per_s`` over ``ramp_duration`` seconds, then stays at
      the peak (sampled by thinning at the peak rate).

    Arrivals draw from one named RNG stream (see
    :func:`~repro.traffic.population.expand_population`), so the same
    seed always yields the same arrival times.
    """

    kind: str = "poisson"
    rate_per_s: Optional[float] = None  # poisson + onoff (ON-period rate)
    # on/off parameters
    mean_on: Optional[float] = None
    mean_off: Optional[float] = None
    # flash-crowd parameters
    base_rate_per_s: Optional[float] = None
    peak_rate_per_s: Optional[float] = None
    ramp_start: Optional[float] = None
    ramp_duration: Optional[float] = None

    #: Which tunables each kind consumes; anything else set is a typo.
    _KIND_FIELDS = {
        "poisson": frozenset({"rate_per_s"}),
        "onoff": frozenset({"rate_per_s", "mean_on", "mean_off"}),
        "flash_crowd": frozenset(
            {"base_rate_per_s", "peak_rate_per_s", "ramp_start",
             "ramp_duration"}
        ),
    }

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; known: {ARRIVAL_KINDS}"
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
                f"arrival kind {self.kind!r} does not use parameter(s) "
                f"{stray}; they would be silently ignored"
            )
        missing = sorted(
            name for name in allowed if getattr(self, name) is None
        )
        if missing:
            raise ValueError(
                f"arrival kind {self.kind!r} requires parameter(s) {missing}"
            )
        if self.kind in ("poisson", "onoff") and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.kind == "onoff" and (self.mean_on <= 0 or self.mean_off <= 0):
            raise ValueError("mean_on and mean_off must be positive")
        if self.kind == "flash_crowd":
            if self.peak_rate_per_s <= 0:
                raise ValueError("peak_rate_per_s must be positive")
            if not 0 <= self.base_rate_per_s <= self.peak_rate_per_s:
                raise ValueError(
                    "base_rate_per_s must be within [0, peak_rate_per_s]"
                )
            if self.ramp_start < 0 or self.ramp_duration <= 0:
                raise ValueError(
                    "ramp_start must be >= 0 and ramp_duration > 0"
                )


@dataclass(frozen=True)
class SizeSpec:
    """One flow-size distribution (bytes).

    ``kind`` selects the model: ``fixed`` (every flow is exactly
    ``size_bytes``), ``exponential`` (mean ``mean_bytes``, floored at
    ``min_bytes``) or ``pareto`` — the truncated heavy tail behind
    "mice vs elephants": shape ``alpha``, scale ``min_bytes``, samples
    above ``max_bytes`` clamped to it.  Every sample is an integer
    ``>= 1``.
    """

    kind: str = "fixed"
    size_bytes: Optional[int] = None  # fixed
    mean_bytes: Optional[float] = None  # exponential
    alpha: Optional[float] = None  # pareto shape
    min_bytes: int = 1  # exponential floor / pareto scale
    max_bytes: Optional[int] = None  # pareto truncation

    _KIND_FIELDS = {
        "fixed": frozenset({"size_bytes"}),
        "exponential": frozenset({"mean_bytes"}),
        "pareto": frozenset({"alpha", "max_bytes"}),
    }

    def __post_init__(self) -> None:
        if self.kind not in SIZE_KINDS:
            raise ValueError(
                f"unknown size kind {self.kind!r}; known: {SIZE_KINDS}"
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
                f"size kind {self.kind!r} does not use parameter(s) "
                f"{stray}; they would be silently ignored"
            )
        missing = sorted(
            name for name in allowed if getattr(self, name) is None
        )
        if missing:
            raise ValueError(
                f"size kind {self.kind!r} requires parameter(s) {missing}"
            )
        if self.min_bytes < 1:
            raise ValueError("min_bytes must be >= 1")
        if self.kind == "fixed" and self.size_bytes < 1:
            raise ValueError("size_bytes must be >= 1")
        if self.kind == "exponential" and self.mean_bytes <= 0:
            raise ValueError("mean_bytes must be positive")
        if self.kind == "pareto":
            if self.alpha <= 0:
                raise ValueError("alpha must be positive")
            if self.max_bytes < self.min_bytes:
                raise ValueError("max_bytes must be >= min_bytes")


@dataclass(frozen=True)
class FlowClassSpec:
    """One class in the population mix (e.g. TCP mice, assured elephants).

    ``weight`` is the class's share of the mix (relative, need not sum
    to 1); ``size`` its flow-size distribution.  The QoS-aware
    transports require ``target_bps`` (the per-flow AF guarantee ``g``
    that :func:`~repro.traffic.population.apply_slas` realizes as an
    edge meter).  ``record=False`` by default: thousand-flow
    populations measure completion times through the flow lifecycle,
    not per-flow recorders.

    ``name`` may not end in a digit: expanded flow ids are
    ``f"{name}{i}"``, so with classes ``a`` and ``a1`` flow 11 of ``a``
    and flow 1 of ``a1`` would both be ``"a11"``.
    """

    name: str
    weight: float
    transport: str = "tcp"
    size: SizeSpec = field(default_factory=lambda: SizeSpec(
        kind="fixed", size_bytes=30_000
    ))
    target_bps: Optional[float] = None
    record: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.name[-1].isdigit():
            raise ValueError(
                f"class {self.name!r}: name must not end in a digit (flow "
                "ids are <name><index>, so the index could not be told "
                "from the name)"
            )
        if self.weight <= 0:
            raise ValueError(f"class {self.name!r}: weight must be positive")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"class {self.name!r}: unknown transport "
                f"{self.transport!r}; known: {TRANSPORTS}"
            )
        if self.transport in ("gtfrc", "qtpaf") and not self.target_bps:
            raise ValueError(
                f"class {self.name!r}: transport {self.transport!r} "
                "requires target_bps (the AF guarantee g)"
            )


@dataclass(frozen=True)
class PopulationSpec:
    """A generated flow population: arrivals x class mix x endpoints.

    The expander caps the population at ``n_flows`` arrivals within
    ``horizon`` seconds (whichever limit binds first), offset by
    ``start``.  ``endpoints`` is the pool of ``(src, dst)`` node pairs;
    best-effort flows draw from it with replacement, assured
    (``gtfrc``/``qtpaf``) flows without (each needs its own conditioned
    access link — see :func:`~repro.traffic.population.apply_slas`).
    ``rng_stream`` names the seed-derived stream family, mirroring the
    ``ChannelSpec.rng_stream`` discipline.
    """

    name: str
    arrival: ArrivalSpec
    classes: Tuple[FlowClassSpec, ...]
    endpoints: Tuple[Tuple[str, str], ...]
    n_flows: int
    horizon: float
    start: float = 0.0
    rng_stream: str = "traffic"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("population name must be non-empty")
        if not self.classes:
            raise ValueError("population needs at least one flow class")
        seen = set()
        for cls in self.classes:
            if cls.name in seen:
                raise ValueError(f"duplicate class name {cls.name!r}")
            seen.add(cls.name)
        if not self.endpoints:
            raise ValueError("population needs at least one endpoint pair")
        if self.n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.start < 0:
            raise ValueError("start must be >= 0")
