r"""Golden trace probes: deterministic runs distilled to exact fingerprints.

A probe runs one small, fixed workload — raw engine churn, a miniature
T1 dumbbell, a spec-built multi-bottleneck scenario, a generated
population, a hybrid packet/fluid run, a registered paper scenario at
miniature parameters — and returns only exact values: every declared
metric as its ``repr`` for the registered scenarios, otherwise integer
counters (``events_processed``, per-queue enqueued / dropped /
dequeued, per-flow delivered bytes and packets), ``repr``-precision
floats (final ``sim.now``, FCT sum, the fluid ledger) and, for the raw
engine, a digest of every ``(time, tag)`` firing in order.  A probe
therefore pins event order, tie-breaking, RNG-stream draw order and
every float operation on the path it exercises: any change to one of
them changes a fingerprint.

``benchmarks/goldens/core_goldens.json`` is :func:`capture_goldens`
written out; ``tests/test_determinism_golden.py`` holds every probe on
the grids below equal to it, so a refactor or an optimization that
keeps the file unchanged has provably not changed a simulation result.
Regenerate it only when a change is *meant* to move results (a new
probe, a corrected model), never to make a failing comparison pass::

    PYTHONPATH=src python -c "import json; \
from repro.harness.probes import capture_goldens; \
print(json.dumps(capture_goldens(), indent=2, sort_keys=True))" \
> benchmarks/goldens/core_goldens.json
"""

from __future__ import annotations

from typing import Dict, List

from repro.ioutil import sha256
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator


def engine_trace_probe(seed: int = 0, n_events: int = 4000) -> Dict[str, object]:
    """Churn the raw engine and fingerprint the exact firing sequence.

    Schedules a seeded random mix of one-shot and rescheduling events
    with cancellation churn, then digests every ``(time, tag)`` firing
    in order.  Any change to event ordering, tie-breaking or
    cancellation semantics changes the digest.
    """
    sim = Simulator(seed=seed)
    rng = sim.rng("probe")
    digest = sha256()
    fired = [0]
    handles: List[object] = []

    def fire(tag: int) -> None:
        fired[0] += 1
        digest.update(f"{sim.now!r}:{tag}".encode())
        if fired[0] < n_events:
            handles.append(sim.schedule(rng.uniform(0.0, 0.01), fire, fired[0]))
            if rng.random() < 0.25 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()

    for tag in range(8):
        handles.append(sim.schedule(rng.uniform(0.0, 0.01), fire, tag))
    sim.run()
    return {
        "digest": digest.hexdigest(),
        "events_processed": sim.events_processed,
        "final_now": repr(sim.now),
    }


def network_trace_probe(
    seed: int = 0, protocol: str = "qtpaf", duration: float = 5.0
) -> Dict[str, object]:
    """Run a miniature T1-style network and fingerprint the outcome.

    A QTPAF/TFRC/TCP assured flow plus two TCP cross flows on a RIO
    bottleneck — every hot layer (engine, packets, links, RIO, TFRC
    loss machinery, recorders) participates.  The scenario is the
    shared :func:`repro.topo.presets.t1_dumbbell_spec` (the golden
    values pin the spec compiler to the seed engine's construction
    order).  Returns exact integers and ``repr``-precision floats:
    ``events_processed``, final ``sim.now`` and per-flow delivered
    byte counts.
    """
    from repro.topo import build, t1_dumbbell_spec

    sim = Simulator(seed=seed)
    built = build(
        sim,
        t1_dumbbell_spec(
            protocol,
            4e6,
            n_cross=2,
            assured_access_delay=0.05,
            cross_record=True,
        ),
    )
    sim.run(until=duration)
    return _network_fingerprint(sim, built, [("left", "right")])


def _network_fingerprint(sim, built, bottlenecks) -> Dict[str, object]:
    """Exact fingerprint of a built scenario run: counters + repr floats.

    With one bottleneck the stats appear under the historical
    ``"bottleneck"`` key; with several, under ``"bottlenecks"`` keyed
    ``"src->dst"``.
    """
    per_queue = {}
    for src, dst in bottlenecks:
        stats = built.queue(src, dst).stats
        per_queue[f"{src}->{dst}"] = {
            "enqueued": stats.enqueued,
            "dropped": stats.dropped,
            "dequeued": stats.dequeued,
        }
    fingerprint: Dict[str, object] = {
        "events_processed": sim.events_processed,
        "final_now": repr(sim.now),
        "delivered_bytes": {
            name: rec.delivered_bytes
            for name, rec in sorted(built.recorders.items())
        },
        "delivered_packets": {
            name: rec.delivered_packets
            for name, rec in sorted(built.recorders.items())
        },
    }
    if len(per_queue) == 1:
        fingerprint["bottleneck"] = next(iter(per_queue.values()))
    else:
        fingerprint["bottlenecks"] = per_queue
    return fingerprint


def topo_trace_probe(
    scenario: str, seed: int = 0, duration: float = 4.0
) -> Dict[str, object]:
    """Fingerprint one of the PR 3 spec-built scenarios, miniaturized.

    Small fixed parameterizations of the three PR 3 workloads
    (``parking_lot``, ``reverse_path_chain``, ``hetero_sla``) plus the
    PR 10 seeded ``random_star`` generator, each distilled to the exact
    counters of :func:`_network_fingerprint` — the goldens pin them so
    later PRs can refactor the specs and the compiler safely.
    """
    from repro.topo import (
        FlowSpec,
        ScenarioSpec,
        build,
        hetero_sla_dumbbell_spec,
        parking_lot_spec,
        random_access_star_spec,
        reverse_path_chain_spec,
    )

    sim = Simulator(seed=seed)
    if scenario == "random_star":
        # the PR 10 seeded generator: heterogeneous sampled access
        # links; pinning the run pins the sampled rates/delays too
        spec = ScenarioSpec(
            name="random_star_probe",
            topology=random_access_star_spec(6, seed=3),
            flows=tuple(
                FlowSpec(f"f{i}", f"h{i}", "srv", transport="tcp")
                for i in range(3)
            ),
        )
        bottlenecks = [("gw", "srv")]
    elif scenario == "parking_lot":
        spec = parking_lot_spec("qtpaf", 4e6, n_cross_a=2, n_cross_b=2,
                                cross_record=True)
        bottlenecks = [("r0", "r1"), ("r1", "r2")]
    elif scenario == "reverse_path_chain":
        spec = reverse_path_chain_spec("gtfrc", 4e6, n_hops=2, n_reverse=2)
        bottlenecks = [("h0", "h1"), ("h2", "h1")]
    elif scenario == "hetero_sla":
        spec = hetero_sla_dumbbell_spec("gtfrc", (1e6, 2e6, 4e6), n_cross=1)
        bottlenecks = [("left", "right")]
    else:
        raise ValueError(f"unknown topo probe scenario {scenario!r}")
    built = build(sim, spec)
    sim.run(until=duration)
    return _network_fingerprint(sim, built, bottlenecks)


def traffic_trace_probe(
    scenario: str, seed: int = 0, duration: float = 6.0
) -> Dict[str, object]:
    """Fingerprint one of the PR 6 generated-population scenarios.

    Miniaturized fixed parameterizations of the two population
    workloads (``flash_crowd``, ``mice_elephants``), distilled to the
    :func:`_network_fingerprint` counters plus the population shape:
    expanded flow count, completed-flow count and the exact sum of
    completion times.  Pins the whole generation pipeline — samplers,
    class mix, endpoint draws, ``apply_slas`` and the byte-budget flow
    lifecycle — to the seed engine.
    """
    from repro.harness.experiments.flash_crowd import flash_crowd_spec
    from repro.harness.experiments.mice_elephants import mice_elephants_spec
    from repro.topo import build

    sim = Simulator(seed=seed)
    if scenario == "flash_crowd":
        spec = flash_crowd_spec(
            "gtfrc", 4e6, n_hosts=10, n_flows=24, duration=duration, seed=seed
        )
    elif scenario == "mice_elephants":
        spec = mice_elephants_spec(
            "qtpaf",
            2e6,
            n_hosts=12,
            n_flows=30,
            arrival_rate_per_s=8.0,
            duration=duration,
            seed=seed,
        )
    else:
        raise ValueError(f"unknown traffic probe scenario {scenario!r}")
    built = build(sim, spec)
    sim.run(until=duration)
    fingerprint = _network_fingerprint(sim, built, [("gw", "srv")])
    done = built.completions()
    fingerprint["flows"] = len(built.spec.flows)
    fingerprint["completed"] = len(done)
    fingerprint["fct_sum"] = repr(fold_sum(c.duration for c in done))
    return fingerprint


def fluid_trace_probe(
    scenario: str, seed: int = 0, duration: float = 6.0
) -> Dict[str, object]:
    """Fingerprint one of the PR 10 hybrid-fidelity scenarios.

    The two ``hybrid_*`` probes run the miniature traffic-probe
    parameterizations through :func:`repro.fluid.hybridize` — the
    foreground counters pin the packet side, the background counters
    (exact ``repr`` floats) pin the fluid epoch model, admission curve
    and elastic retry accounting.  ``mmpp_dumbbell`` pins the
    Markov-modulated kind and its one-draw-per-epoch RNG-stream
    discipline on the shared T1 dumbbell.
    """
    from dataclasses import replace

    from repro.fluid import BackgroundLoadSpec, hybridize
    from repro.harness.experiments.flash_crowd import (
        flash_crowd_population,
        flash_crowd_spec,
    )
    from repro.harness.experiments.mice_elephants import (
        mice_elephants_population,
        mice_elephants_spec,
    )
    from repro.metrics.fluid import background_summary
    from repro.topo import build, t1_dumbbell_spec

    sim = Simulator(seed=seed)
    if scenario == "hybrid_flash_crowd":
        spec = flash_crowd_spec(
            "gtfrc", 4e6, n_hosts=10, n_flows=24, duration=duration, seed=seed
        )
        population = flash_crowd_population(
            n_hosts=10, n_flows=24, duration=duration
        )
        spec = hybridize(
            spec, population, seed=seed, per_flow_rate_bps=500e3
        )
        bottlenecks = [("gw", "srv")]
    elif scenario == "hybrid_mice_elephants":
        spec = mice_elephants_spec(
            "qtpaf",
            2e6,
            n_hosts=12,
            n_flows=30,
            arrival_rate_per_s=8.0,
            duration=duration,
            seed=seed,
        )
        population = mice_elephants_population(
            "qtpaf",
            2e6,
            n_hosts=12,
            n_flows=30,
            arrival_rate_per_s=8.0,
            duration=duration,
        )
        spec = hybridize(
            spec,
            population,
            seed=seed,
            background_classes=("mice",),
            per_flow_rate_bps=500e3,
        )
        bottlenecks = [("gw", "srv")]
    elif scenario == "mmpp_dumbbell":
        spec = t1_dumbbell_spec("gtfrc", 4e6, n_cross=2)
        background = BackgroundLoadSpec(
            kind="mmpp",
            rate_low_bps=1e6,
            rate_high_bps=8e6,
            mean_low_s=0.5,
            mean_high_s=0.3,
            min_foreground_share=0.4,
        )
        links = tuple(
            replace(ls, background=background) if ls.queue.kind == "rio" else ls
            for ls in spec.topology.links
        )
        spec = replace(spec, topology=replace(spec.topology, links=links))
        bottlenecks = [("left", "right")]
    else:
        raise ValueError(f"unknown fluid probe scenario {scenario!r}")
    built = build(sim, spec)
    sim.run(until=duration)
    fingerprint = _network_fingerprint(sim, built, bottlenecks)
    fingerprint["flows"] = len(built.spec.flows)
    bg = background_summary(built.fluid_sources.values())
    fingerprint["background"] = {
        "sources": bg.sources,
        "epochs": bg.epochs,
        "offered_bytes": repr(bg.offered_bytes),
        "served_bytes": repr(bg.served_bytes),
        "dropped_bytes": repr(bg.dropped_bytes),
        "backlog_bytes": repr(bg.backlog_bytes),
        "pending_bytes": repr(bg.pending_bytes),
        "peak_backlog_bytes": repr(bg.peak_backlog_bytes),
    }
    return fingerprint


def scenario_trace_probe(scenario: str) -> Dict[str, str]:
    """Fingerprint one registered paper scenario, miniaturized.

    Runs the scenario the registry holds under ``scenario`` for 6
    simulated seconds at seed 0 with the parameters of
    :data:`SCENARIO_PROBE_GRID` and returns every declared metric as
    its ``repr`` — so the paper tables these scenarios produce (t3–t5,
    f1, f3, f4) are held float-exact in tier-1, not only by the slow
    tier's committed tables.
    """
    from repro.harness.registry import get_scenario

    result = get_scenario(scenario).fn(
        duration=6.0, seed=0, **SCENARIO_PROBE_GRID[scenario]
    )
    return {name: repr(value) for name, value in result.metrics().items()}


#: The raw-engine churn seeds fingerprinted by the golden tests.
ENGINE_PROBE_SEEDS = (0, 1, 2)

#: The (protocol, seed) grid fingerprinted by the golden tests.
TRACE_PROBE_GRID = (
    ("qtpaf", 0),
    ("qtpaf", 1),
    ("tfrc", 0),
    ("tcp", 0),
)

#: The PR 3 spec-built scenarios fingerprinted by the golden tests.
TOPO_PROBE_SCENARIOS = (
    "parking_lot",
    "reverse_path_chain",
    "hetero_sla",
    "random_star",
)

#: The PR 6 generated-population scenarios fingerprinted by the goldens.
TRAFFIC_PROBE_SCENARIOS = ("flash_crowd", "mice_elephants")

#: The PR 10 hybrid-fidelity scenarios fingerprinted by the goldens.
FLUID_PROBE_SCENARIOS = (
    "hybrid_flash_crowd",
    "hybrid_mice_elephants",
    "mmpp_dumbbell",
)

#: The registered paper scenarios fingerprinted by the goldens, each
#: with the parameters its miniature run fixes.
SCENARIO_PROBE_GRID = {
    "smoothness": {"protocol": "tfrc", "warmup": 1.0},
    "friendliness": {"n_tcp": 2, "warmup": 1.0},
    "selfish_receiver": {"mode": "tfrc", "lying": True, "warmup": 1.0},
    "estimation_accuracy": {"loss_rate": 0.05, "warmup": 1.0},
    "reliability_modes": {"mode": "partial-time"},
    "receiver_load": {"profile": "qtplight-retx", "loss_rate": 0.08, "warmup": 1.0},
}


def capture_goldens() -> Dict[str, object]:
    """Run every trace probe and return the full golden fingerprint set."""
    return {
        "engine": {
            str(seed): engine_trace_probe(seed=seed)
            for seed in ENGINE_PROBE_SEEDS
        },
        "network": {
            f"{protocol}:{seed}": network_trace_probe(seed=seed, protocol=protocol)
            for protocol, seed in TRACE_PROBE_GRID
        },
        "topo": {
            name: topo_trace_probe(name) for name in TOPO_PROBE_SCENARIOS
        },
        "traffic": {
            name: traffic_trace_probe(name) for name in TRAFFIC_PROBE_SCENARIOS
        },
        "fluid": {
            name: fluid_trace_probe(name) for name in FLUID_PROBE_SCENARIOS
        },
        "scenario": {
            name: scenario_trace_probe(name) for name in SCENARIO_PROBE_GRID
        },
    }
