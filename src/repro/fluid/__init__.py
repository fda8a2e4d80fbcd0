"""Hybrid-fidelity simulation: fluid background traffic (PR 10).

``repro.fluid`` injects *aggregate* background load at queues instead
of simulating each background flow's packets, so a scenario keeps its
few foreground AF/gTFRC flows packet-level against a modeled
background of thousands of users — the population scales packet-level
simulation cannot reach at any constant factor.

Module map
----------
:mod:`repro.fluid.specs`
    :class:`BackgroundLoadSpec` — frozen offered-load models
    (``constant`` rate, ``mmpp`` two-state Markov-modulated bursts,
    ``population`` profiles derived from generated flow populations),
    kind/parameter cross-validated like every other spec.
:mod:`repro.fluid.source`
    :class:`FluidSource` — the engine component: one event per epoch
    updates a conservative fluid backlog and couples it into the
    packet world via virtual RED/RIO occupancy and foreground service
    share.  ``REPRO_NO_FLUID=1`` disables compilation entirely
    (byte-identical foreground-only runs, mirroring ``REPRO_NO_POOL``).
:mod:`repro.fluid.derive`
    The two doors from a population to a fluid background.  Door 1
    derives it from the population itself, streaming the population's
    own draws into the profile without building a flow:
    :func:`background_from_population` (``PopulationSpec`` →
    ``BackgroundLoadSpec``) and :func:`add_population_background`
    (foreground-only ``ScenarioSpec`` → the same plus that background
    on the bottlenecks).  Door 2, :func:`hybridize`, transforms a
    ``ScenarioSpec`` that already holds the expanded flows into
    packet-level foreground + fluid background.

Quickstart::

    from repro.fluid import add_population_background, hybridize
    # the crowd never exists as flows: O(epochs) memory at any size
    hybrid = add_population_background(foreground, population, seed=0)
    # or: convert the expanded flows of a spec you already hold
    hybrid = hybridize(spec, population, seed=0)
    # ... build(sim, hybrid) runs foreground packet-level only

Validation: the "fluid" goldens section pins hybrid runs bit-exactly,
and ``tests/test_fluid_equivalence.py`` holds hybrid vs packet-level
foreground metrics within documented tolerance bands on populations
small enough to run both ways.  See ``docs/hybrid.md``.
"""

from repro.fluid.source import FluidSource  # noqa: F401
from repro.fluid.specs import BACKGROUND_KINDS, BackgroundLoadSpec  # noqa: F401

#: Names served from :mod:`repro.fluid.derive` on first use.  ``derive``
#: sits *above* ``repro.topo`` and ``repro.traffic`` (it imports both),
#: while ``topo.specs`` / ``topo.build`` import ``fluid.specs`` /
#: ``fluid.source`` from below; importing it here eagerly closes the
#: cycle ``traffic.population -> topo -> fluid -> derive ->
#: traffic.population`` and ``import repro.traffic`` fails in a fresh
#: interpreter.
_DERIVE_NAMES = (
    "add_population_background",
    "background_from_population",
    "background_from_population_flows",
    "hybridize",
)


def __getattr__(name: str):
    if name in _DERIVE_NAMES:
        from repro.fluid import derive

        return getattr(derive, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BACKGROUND_KINDS",
    "BackgroundLoadSpec",
    "FluidSource",
    "add_population_background",
    "background_from_population",
    "background_from_population_flows",
    "hybridize",
]
