"""Generated flow populations (PR 6).

``repro.traffic`` is the workload-generation layer: stochastic traffic
models that emit ordinary ``FlowSpec`` populations, so churny
thousand-flow workloads are registered, seeded, golden-pinned and
sweepable exactly like the hand-enumerated 4-flow dumbbells.

Module map
----------
:mod:`repro.traffic.specs`
    The vocabulary — :class:`ArrivalSpec` (Poisson / on-off bursts /
    flash-crowd ramp), :class:`SizeSpec` (fixed / exponential /
    truncated-Pareto "mice vs elephants"), :class:`FlowClassSpec`
    (transport + mix weight + size distribution) and the top-level
    :class:`PopulationSpec`.  All frozen, kind/parameter
    cross-validated pure data.
:mod:`repro.traffic.samplers`
    Deterministic samplers with a pinned draw order:
    :func:`~repro.traffic.samplers.iter_arrivals` streams arrival
    times and :func:`~repro.traffic.samplers.size_sampler` binds a
    one-draw flow-size function, both from ``(spec, rng)``.
:mod:`repro.traffic.population`
    :func:`expand_population` — ``PopulationSpec -> tuple[FlowSpec,
    ...]`` driven by independent named RNG streams (the ``ChannelSpec``
    seeding discipline) — and :func:`apply_slas`, which rewrites a
    ``TopologySpec`` to give every generated assured flow its srTCM
    edge meter.

Quickstart::

    from repro.sim.engine import Simulator
    from repro.topo import ScenarioSpec, build
    from repro.topo.generators import access_star_endpoints, access_star_spec
    from repro.traffic import (
        ArrivalSpec, FlowClassSpec, PopulationSpec, SizeSpec,
        apply_slas, expand_population,
    )

    pop = PopulationSpec(
        name="mice",
        arrival=ArrivalSpec(kind="poisson", rate_per_s=20.0),
        classes=(FlowClassSpec("mouse", 1.0, "tcp",
                               SizeSpec(kind="pareto", alpha=1.3,
                                        min_bytes=8_000, max_bytes=200_000)),),
        endpoints=access_star_endpoints(16),
        n_flows=100, horizon=8.0,
    )
    flows = expand_population(pop, seed=0)
    topo = apply_slas(access_star_spec(16), flows)
    sim = Simulator(seed=0)
    built = build(sim, ScenarioSpec("demo", topo, flows))
    sim.run(until=10.0)
    print(len(built.completions()), "flows completed")

See ``examples/traffic_churn.py`` for the full walkthrough.
"""

from repro.traffic.population import (  # noqa: F401
    ASSURED_TRANSPORTS,
    apply_slas,
    expand_population,
)
from repro.traffic.specs import (  # noqa: F401
    ARRIVAL_KINDS,
    SIZE_KINDS,
    ArrivalSpec,
    FlowClassSpec,
    PopulationSpec,
    SizeSpec,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ASSURED_TRANSPORTS",
    "SIZE_KINDS",
    "ArrivalSpec",
    "FlowClassSpec",
    "PopulationSpec",
    "SizeSpec",
    "apply_slas",
    "expand_population",
]
