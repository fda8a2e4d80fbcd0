"""Determinism goldens: the engine reproduces the seed engine exactly.

``benchmarks/goldens/core_goldens.json`` holds fingerprints captured
from the *seed* engine (pre-PR 2): exact event-sequence digests for
raw-engine churn and ``(events_processed, final sim.now, per-flow
delivered bytes)`` for miniature network runs.  These tests prove that

* identical ``(seed, scenario)`` still produces identical results after
  the hot-path overhaul (tuple-backed heap, slotted packets, interval
  loss tracking, prefix-sum recorders), and
* two runs in one process are identical (no hidden global state).

The ``scenario`` section is of another kind: every declared metric of
six registered paper scenarios (the t3–t5, f1, f3, f4 tables) at
miniature parameters, captured from the hand-wired scenarios before
they were ported onto :mod:`repro.topo` specs.

They run in tier-1, and they cover the whole golden file: every probe
on every grid of :mod:`repro.harness.probes` is compared with its entry
(~3 s in all), and each section's keys must equal the grid that
produces them, so a probe without a golden, or a golden without a
probe, fails by name.
"""

import json
from pathlib import Path

import pytest

from repro.harness.probes import (
    ENGINE_PROBE_SEEDS,
    FLUID_PROBE_SCENARIOS,
    SCENARIO_PROBE_GRID,
    TOPO_PROBE_SCENARIOS,
    TRACE_PROBE_GRID,
    TRAFFIC_PROBE_SCENARIOS,
    engine_trace_probe,
    fluid_trace_probe,
    network_trace_probe,
    scenario_trace_probe,
    topo_trace_probe,
    traffic_trace_probe,
)

GOLDENS_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "goldens"
    / "core_goldens.json"
)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS_PATH.read_text())


#: golden section -> the keys its probe grid writes (capture_goldens)
GOLDEN_KEYS = {
    "engine": [str(seed) for seed in ENGINE_PROBE_SEEDS],
    "network": [f"{protocol}:{seed}" for protocol, seed in TRACE_PROBE_GRID],
    "topo": list(TOPO_PROBE_SCENARIOS),
    "traffic": list(TRAFFIC_PROBE_SCENARIOS),
    "fluid": list(FLUID_PROBE_SCENARIOS),
    "scenario": list(SCENARIO_PROBE_GRID),
}


def test_golden_keys_equal_probe_grids(goldens):
    # a probe without a golden, or a golden without a probe, is named
    # in the dict diff
    assert {section: sorted(entries) for section, entries in goldens.items()} == {
        section: sorted(keys) for section, keys in GOLDEN_KEYS.items()
    }


@pytest.mark.parametrize("seed", ENGINE_PROBE_SEEDS)
def test_engine_trace_matches_seed_engine(goldens, seed):
    assert engine_trace_probe(seed=seed) == goldens["engine"][str(seed)]


@pytest.mark.parametrize("protocol, seed", TRACE_PROBE_GRID)
def test_network_trace_matches_seed_engine(goldens, protocol, seed):
    assert network_trace_probe(seed=seed, protocol=protocol) == (
        goldens["network"][f"{protocol}:{seed}"]
    )


def test_engine_probe_is_repeatable():
    assert engine_trace_probe(seed=5) == engine_trace_probe(seed=5)


def test_engine_probe_varies_with_seed():
    assert engine_trace_probe(seed=0) != engine_trace_probe(seed=1)


def test_network_probe_is_repeatable():
    a = network_trace_probe(seed=3, protocol="tfrc", duration=2.0)
    b = network_trace_probe(seed=3, protocol="tfrc", duration=2.0)
    assert a == b


@pytest.mark.parametrize("scenario", TOPO_PROBE_SCENARIOS)
def test_topo_scenario_trace_matches_golden(goldens, scenario):
    # pins the PR 3 spec-built scenarios (parking lot, reverse-path
    # chain, heterogeneous SLAs) so later PRs can refactor the specs
    # and the compiler safely
    assert topo_trace_probe(scenario) == goldens["topo"][scenario]


def test_topo_probe_is_repeatable():
    a = topo_trace_probe("parking_lot", seed=2, duration=2.0)
    b = topo_trace_probe("parking_lot", seed=2, duration=2.0)
    assert a == b


@pytest.mark.parametrize("scenario", TRAFFIC_PROBE_SCENARIOS)
def test_traffic_scenario_trace_matches_golden(goldens, scenario):
    # pins the PR 6 generated-population pipeline end to end: arrival
    # samplers, class mix, endpoint draws, apply_slas and the
    # byte-budget flow lifecycle (flow/completed counts + exact FCT sum)
    assert traffic_trace_probe(scenario) == goldens["traffic"][scenario]


def test_traffic_probe_is_repeatable():
    a = traffic_trace_probe("mice_elephants", seed=4, duration=3.0)
    b = traffic_trace_probe("mice_elephants", seed=4, duration=3.0)
    assert a == b


@pytest.mark.parametrize("scenario", FLUID_PROBE_SCENARIOS)
def test_fluid_scenario_trace_matches_golden(goldens, scenario):
    # pins the PR 10 hybrid-fidelity pipeline end to end: hybridize's
    # foreground/background split, the fluid epoch model (admission
    # curve, elastic retry, service-share modulation) and the MMPP
    # one-draw-per-epoch RNG-stream discipline
    assert fluid_trace_probe(scenario) == goldens["fluid"][scenario]


def test_fluid_probe_is_repeatable():
    a = fluid_trace_probe("hybrid_flash_crowd", seed=3, duration=3.0)
    b = fluid_trace_probe("hybrid_flash_crowd", seed=3, duration=3.0)
    assert a == b


@pytest.mark.parametrize("scenario", SCENARIO_PROBE_GRID)
def test_registered_scenario_metrics_match_golden(goldens, scenario):
    # pins the six paper scenarios that build their network from a
    # repro.topo shape to what their hand-wired predecessors computed
    assert scenario_trace_probe(scenario) == goldens["scenario"][scenario]


def test_fluid_disabled_matches_foreground_only_run(monkeypatch):
    # REPRO_NO_FLUID=1 must compile the hybrid spec with zero fluid
    # machinery: same events, same counters as never declaring a
    # background (the kill-switch contract, mirroring REPRO_NO_POOL)
    from repro.topo.build import NO_FLUID_ENV

    monkeypatch.setenv(NO_FLUID_ENV, "1")
    disabled = fluid_trace_probe("mmpp_dumbbell", seed=1, duration=2.0)
    monkeypatch.delenv(NO_FLUID_ENV)
    enabled = fluid_trace_probe("mmpp_dumbbell", seed=1, duration=2.0)
    assert disabled["background"]["sources"] == 0
    assert enabled["background"]["sources"] == 1
    assert disabled != enabled
