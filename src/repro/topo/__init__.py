"""Declarative topology & scenario composition (PR 3).

``repro.topo`` turns the copy-pasted experiment scaffolds into data:
frozen dataclass specs describe a scenario, and one compiler builds the
live simulation objects in a pinned order, so "add a scenario" is a
~30-line spec instead of a ~120-line module.

Module map
----------
:mod:`repro.topo.specs`
    The spec vocabulary — :class:`QueueSpec` (DropTail/RED/RIO),
    :class:`SlaSpec`/:class:`MarkerSpec` (DiffServ edge conditioning),
    :class:`LinkSpec`, :class:`TopologySpec`, :class:`FlowSpec`
    (transport profile + schedule) and the top-level
    :class:`ScenarioSpec`.  All frozen/hashable pure data.
:mod:`repro.topo.build`
    The compiler: :func:`build` constructs the
    :class:`~repro.sim.topology.Network`, queues, SLAs/markers,
    senders/receivers and recorders in a pinned, documented order
    (goldens fingerprint it) and returns a :class:`BuiltScenario`
    handle keyed by flow id and link direction.
:mod:`repro.topo.generators`
    Programmatic topology generators, all in pinned deterministic
    order: the two canonical shapes (:func:`dumbbell_spec`,
    :func:`chain_spec` — the only place their link order is written)
    and the shapes for generated populations
    (:func:`access_star_spec` with its :func:`access_star_endpoints`
    pool, :func:`isp_chain_spec`, :func:`fat_tree_spec`).
:mod:`repro.topo.presets`
    Canonical specs, composed from the generators: the shared
    :func:`t1_dumbbell_spec` (the one copy of the T1 scaffold that
    ``af_assurance``, ``gtfrc_ablation``, ``convergence`` and the
    golden network probe share), :func:`lossy_chain_spec` and the PR 3
    multi-bottleneck shapes (:func:`parking_lot_spec`,
    :func:`reverse_path_chain_spec`, :func:`hetero_sla_dumbbell_spec`).

Quickstart::

    from repro.sim.engine import Simulator
    from repro.topo import build, t1_dumbbell_spec

    sim = Simulator(seed=0)
    built = build(sim, t1_dumbbell_spec("qtpaf", 4e6, n_cross=4))
    sim.run(until=30.0)
    print(built.recorder("assured").mean_rate_bps(5.0, 30.0))

See ``examples/compose_scenario.py`` for a from-scratch custom spec.
"""

from repro.topo.build import BuiltScenario, build  # noqa: F401
from repro.topo.generators import (  # noqa: F401
    access_star_endpoints,
    access_star_spec,
    chain_spec,
    dumbbell_spec,
    fat_tree_spec,
    isp_chain_spec,
    random_access_star_spec,
)
from repro.topo.presets import (  # noqa: F401
    hetero_sla_dumbbell_spec,
    lossy_chain_spec,
    parking_lot_spec,
    reverse_path_chain_spec,
    t1_dumbbell_spec,
)
from repro.topo.specs import (  # noqa: F401
    ChannelSpec,
    FlowSpec,
    LinkSpec,
    MarkerSpec,
    QueueSpec,
    ScenarioSpec,
    SlaSpec,
    TopologySpec,
)

__all__ = [
    "BuiltScenario",
    "ChannelSpec",
    "FlowSpec",
    "LinkSpec",
    "MarkerSpec",
    "QueueSpec",
    "ScenarioSpec",
    "SlaSpec",
    "TopologySpec",
    "access_star_endpoints",
    "access_star_spec",
    "build",
    "chain_spec",
    "dumbbell_spec",
    "fat_tree_spec",
    "hetero_sla_dumbbell_spec",
    "isp_chain_spec",
    "lossy_chain_spec",
    "parking_lot_spec",
    "random_access_star_spec",
    "reverse_path_chain_spec",
    "t1_dumbbell_spec",
]
