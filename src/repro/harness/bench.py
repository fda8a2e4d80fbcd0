"""Perf benchmark subsystem: pinned micro+macro suite and trace probes.

Single-run speed is a first-class, continuously measured property of
this repository (ROADMAP north star: "runs as fast as the hardware
allows").  This module provides

* a **pinned benchmark suite** (:data:`BENCHMARKS`) covering the hot
  layers of the simulation core — the engine event loop, the
  packet/queue forwarding path (both the construction and the pooled
  lifecycle, plus a saturated-link end-to-end micro), an end-to-end T1
  scenario run and warm-pool sweep dispatch — each reported as a rate
  (higher is better);
* the ``python -m repro.harness bench`` command (see
  :mod:`repro.harness.cli`) which runs the suite, prints a table and
  writes ``BENCH_core.json``; ``bench --check`` instead compares a
  fresh run against the committed numbers and fails on a >20%
  slowdown, guarding future PRs against perf regressions;
* **trace probes** (:func:`engine_trace_probe`,
  :func:`network_trace_probe`) — deterministic workloads that distill a
  run into exact, comparable fingerprints (event sequence digest,
  ``events_processed``, final ``sim.now``, per-flow delivered bytes).
  The golden tests pin their output to values captured from the seed
  engine, proving that perf work never changes simulation results.

Wall-clock numbers are machine-dependent; the JSON file records both
the frozen pre-optimization ``baseline`` and the ``current`` numbers
measured on the same machine, so the committed speedup ratios are
apples-to-apples even though absolute rates vary across hosts.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.ioutil import atomic_write_text
from repro.sim.engine import Simulator

#: Default location of the committed benchmark record (repo root).
BENCH_FILE = "BENCH_core.json"

#: ``bench --check`` fails when any metric is slower than committed
#: current numbers by more than this factor.
REGRESSION_TOLERANCE = 0.20


# ----------------------------------------------------------------------
# micro benchmarks (each returns "work units done"; the driver times it)
# ----------------------------------------------------------------------
def _bench_engine_events(n_events: int = 150_000, n_timers: int = 16) -> float:
    """Engine micro: self-rescheduling timer churn through the heap.

    Mirrors the protocol workload: a handful of interleaved periodic
    callbacks, each pop followed by a push, with the occasional cancel.
    """
    sim = Simulator(seed=1)
    count = [0]

    def tick(interval: float) -> None:
        count[0] += 1
        if count[0] < n_events:
            ev = sim.schedule(interval, tick, interval)
            if count[0] % 97 == 0:  # light cancellation churn
                ev.cancel()
                sim.schedule(interval, tick, interval)

    for i in range(n_timers):
        sim.schedule(0.001 * (i + 1), tick, 0.001 * (i + 1))
    sim.run()
    return float(sim.events_processed)


def _bench_packet_alloc(n_packets: int = 120_000) -> float:
    """Packet-layer micro: allocation + header construction rate."""
    from repro.sim.packet import Packet, PacketKind, TfrcDataHeader

    for seq in range(n_packets):
        Packet(
            src="s0",
            dst="d0",
            flow_id="f",
            size=1000,
            kind=PacketKind.DATA,
            header=TfrcDataHeader(seq=seq, timestamp=0.001 * seq, rtt_estimate=0.05),
            created_at=0.001 * seq,
        )
    return float(n_packets)


def _bench_packet_pool(n_packets: int = 120_000) -> float:
    """Packet-layer micro: pooled acquire/refill/release lifecycle rate.

    The ``packet_alloc`` successor: the same logical work — one data
    packet with a filled TFRC header per iteration — through the
    :class:`~repro.sim.packet.PacketPool` fast path agents use.  With
    ``REPRO_NO_POOL=1`` it degrades to the construction path, so the
    kill-switch shows up in the numbers instead of breaking the suite.
    """
    from repro.sim.engine import Simulator
    from repro.sim.packet import Packet, PacketKind, PacketPool, TfrcDataHeader

    sim = Simulator(seed=1)
    pool = PacketPool.of(sim)
    data = PacketKind.DATA
    for seq in range(n_packets):
        t = 0.001 * seq
        packet = (
            pool.acquire(TfrcDataHeader, "s0", "d0", "f", 1000, data, t)
            if pool is not None
            else None
        )
        if packet is None:
            packet = Packet(
                src="s0",
                dst="d0",
                flow_id="f",
                size=1000,
                kind=data,
                header=TfrcDataHeader(seq=seq, timestamp=t, rtt_estimate=0.05),
                created_at=t,
            )
            if pool is not None:
                packet.pooled = True
        else:
            header = packet.header
            header.seq = seq
            header.timestamp = t
            header.rtt_estimate = 0.05
            header.forward_ack = 0
        if pool is not None:
            pool.release(packet)
    return float(n_packets)


def _bench_link_saturation(n_packets: int = 40_000) -> float:
    """Forwarding micro: a saturated link end to end through the engine.

    A 32-packet self-clocked window over one 100 Mbit/s DropTail link:
    every delivery recycles the packet and injects the next, so the
    serialization pipeline never idles.  Exercises exactly the
    per-packet hot path — pooled packet acquire/release, the
    handle-free ``schedule_pooled`` transmission and delivery events,
    queue admission — with none of the transport arithmetic on top.
    """
    from repro.sim.engine import Simulator
    from repro.sim.link import Link
    from repro.sim.node import Agent, Node
    from repro.sim.packet import Packet, PacketKind, PacketPool, TfrcDataHeader
    from repro.sim.queues import DropTailQueue

    sim = Simulator(seed=1)
    a, b = Node(sim, "a"), Node(sim, "b")
    Link(sim, a, b, rate_bps=100e6, delay=0.0005,
         queue=DropTailQueue(capacity_packets=64))
    pool = PacketPool.of(sim)
    data = PacketKind.DATA
    sent = [0]

    def send_one() -> None:
        seq = sent[0]
        sent[0] = seq + 1
        now = sim.now
        packet = (
            pool.acquire(TfrcDataHeader, "a", "b", "f", 1000, data, now)
            if pool is not None
            else None
        )
        if packet is None:
            packet = Packet(
                src="a", dst="b", flow_id="f", size=1000, kind=data,
                header=TfrcDataHeader(seq=seq, timestamp=now, rtt_estimate=0.0),
                created_at=now,
            )
            if pool is not None:
                packet.pooled = True
        else:
            header = packet.header
            header.seq = seq
            header.timestamp = now
            header.rtt_estimate = 0.0
            header.forward_ack = 0
        a.send(packet)

    class _Sink(Agent):
        def receive(self, packet):  # noqa: D102 - bench sink
            if pool is not None:
                pool.release(packet)
            if sent[0] < n_packets:
                send_one()

    _Sink(sim).attach(b, "f")
    for _ in range(32):
        send_one()
    sim.run()
    return float(n_packets)


def _bench_sweep_warm(n_runs: int = 4) -> float:
    """Sweep-dispatch macro: a small sweep through the warm worker pool.

    ``run_matrix`` with two workers and no cache, deliberately *small*
    runs: per-call overhead (pool spawn, worker warmup, IPC setup) is
    the quantity under test, and a short sweep is where it shows.  The
    first repetition pays the spawn, later repetitions reuse the pool —
    best-of-repeats therefore reports the *warm* dispatch rate that
    back-to-back sweeps (bench tables, CI loops) experience.  The
    frozen baseline for this metric was measured with the pool torn
    down between calls (cold spawn every time).
    """
    from repro.harness.runner import run_matrix

    records = run_matrix(
        "af_assurance",
        {"protocol": ("qtpaf",)},
        base=dict(
            target_bps=4e6, n_cross=1, duration=0.5, warmup=0.1,
            bottleneck_bps=4e6,
        ),
        seeds=range(n_runs),
        workers=2,
        cache_dir=None,
    )
    return float(len(records))


def _bench_sweep_fault_overhead(n_runs: int = 4) -> float:
    """Fault-plumbing micro: the warm sweep with retries+timeout armed.

    Identical workload to ``sweep_warm``, but with the full PR 7
    fault-tolerance plumbing engaged on the fault-free path:
    ``strict=False``, ``max_retries=2`` and a generous ``run_timeout``
    (so every dispatch carries an attempt number and a deadline, every
    response passes validation, and the deadline reaper runs).  No
    fault ever fires, so the rate difference against ``sweep_warm`` is
    pure fabric overhead — the slow-tier guard test pins it under 5%.
    """
    from repro.harness.runner import run_matrix

    records = run_matrix(
        "af_assurance",
        {"protocol": ("qtpaf",)},
        base=dict(
            target_bps=4e6, n_cross=1, duration=0.5, warmup=0.1,
            bottleneck_bps=4e6,
        ),
        seeds=range(n_runs),
        workers=2,
        cache_dir=None,
        strict=False,
        max_retries=2,
        run_timeout=300.0,
    )
    return float(len(records))


def _bench_obs_overhead(n_runs: int = 4) -> float:
    """Observability micro: the warm sweep with the full obs plane armed.

    Identical workload to ``sweep_warm`` run through the
    :class:`~repro.api.experiment.Experiment` facade with every PR 8
    hook engaged at once — metrics registry enabled (engine run hook +
    per-link queue tracking in-process, sweep harvest parent-side),
    span tracing on (every cell emits queued/dispatched/done events),
    and a live observer consuming the event stream.  The rate
    difference against ``sweep_warm`` bounds the *enabled* cost of
    observability; the slow-tier guard test pins the disabled cost
    under 2% and this enabled cost under 10%.
    """
    from repro.api.experiment import Experiment
    from repro.obs.metrics import disable_metrics, enable_metrics, reset_metrics

    events: list = []
    enable_metrics()
    try:
        reset_metrics()
        results = (
            Experiment("af_assurance")
            .sweep(protocol=("qtpaf",))
            .configure(
                target_bps=4e6, n_cross=1, duration=0.5, warmup=0.1,
                bottleneck_bps=4e6,
            )
            .seeds(range(n_runs))
            .workers(2)
            .cache(None)
            .trace(True)
            .run(observer=events.append)
        )
    finally:
        disable_metrics()
    return float(len(results))


def _bench_rio_queue(n_packets: int = 120_000) -> float:
    """Queue micro: packets/s through a RIO queue (enqueue+dequeue)."""
    import random

    from repro.sim.packet import Color, Packet
    from repro.sim.queues import RioQueue

    rng = random.Random(42)
    queue = RioQueue(rng=random.Random(7))
    colors = (Color.GREEN, Color.YELLOW, Color.RED)
    packets = [
        Packet(src="s", dst="d", flow_id="f", size=1000, color=colors[rng.randrange(3)])
        for _ in range(64)
    ]
    now = 0.0
    for i in range(n_packets):
        now += 0.0005
        queue.enqueue(packets[i & 63], now)
        if i & 1:
            queue.dequeue(now)
    while queue.dequeue(now) is not None:
        pass
    return float(n_packets)


def _bench_loss_estimator(n_packets: int = 60_000) -> float:
    """Receiver-bookkeeping micro: RFC 3448 loss machinery arrival rate."""
    import random

    from repro.tfrc.loss_history import LossEventEstimator

    rng = random.Random(7)
    seqs = [seq for seq in range(n_packets) if rng.random() >= 0.02]
    est = LossEventEstimator()
    t = 0.0
    for seq in seqs:
        t += 0.001
        est.on_packet(seq, t, 0.05)
    est.loss_event_rate()
    return float(len(seqs))


def _bench_t1_scenario() -> float:
    """Macro: one end-to-end T1 run (QTPAF + 4 TCP cross on RIO).

    The exact configuration timed by ``benchmarks/test_t1_af_assurance``;
    the unit of work is one full scenario run, so the reported rate is
    runs/s and its reciprocal is the t1 wall clock.
    """
    from repro.harness.registry import get_scenario

    spec = get_scenario("af_assurance")
    spec.fn("qtpaf", target_bps=4e6, n_cross=4, duration=10.0, warmup=2.0, seed=3)
    return 1.0


def _bench_population_1000() -> float:
    """Macro: a 1000-flow generated population end to end (PR 6).

    The ``mice_elephants`` scenario at population scale — a Poisson
    storm of heavy-tailed TCP mice plus 2% assured elephants on a
    64-host access star, every flow finite so the run is pure churn.
    Times spec expansion, per-flow SLA conditioning, construction and
    the full lifecycle (start → byte budget → departure) for a
    thousand transports; the unit of work is one run, so the rate is
    runs/s.
    """
    from repro.harness.registry import get_scenario

    spec = get_scenario("mice_elephants")
    spec.fn(
        "gtfrc",
        n_hosts=64,
        n_flows=1000,
        arrival_rate_per_s=250.0,
        elephant_share=0.02,
        duration=6.0,
        seed=1,
    )
    return 1.0


def _bench_population_100k_hybrid() -> float:
    """Macro: a 100,000-flow crowd at hybrid fidelity (PR 10).

    The ``hybrid_flash_crowd`` scenario with the crowd fluidized: every
    one of the 100,000 arrivals is still drawn, exactly as a
    packet-level expansion would draw it, but it is binned into the
    offered-load profile and dropped
    (:func:`repro.fluid.add_population_background`) — no ``FlowSpec``
    is built for it — and its bytes run through one
    :class:`repro.fluid.FluidSource` per bottleneck instead of 100k
    packet transports, so memory stays at a packet run's and the event
    count stays bounded by the foreground plus the epoch clock.  About
    a third of what is left is spec side (the draws and the binning);
    ``perf/run.py --workload hybrid_100k --trace 1`` has the ledger.
    Paired with ``population_1000`` (full packet fidelity) this pins
    the scale argument for hybrid runs: 100x the population for a few
    times the wall clock.  ``benchmarks/test_p3_hybrid_scale`` records
    the comparison as a table.
    """
    from repro.harness.registry import get_scenario

    spec = get_scenario("hybrid_flash_crowd")
    spec.fn(
        fidelity="hybrid",
        n_flows=100_000,
        n_hosts=64,
        base_rate_per_s=2000.0,
        peak_rate_per_s=30000.0,
        ramp_start=1.0,
        ramp_duration=2.0,
        bottleneck_bps=2e9,
        target_bps=40e6,
        duration=6.0,
        seed=1,
    )
    return 1.0


@dataclass(frozen=True)
class BenchSpec:
    """One pinned benchmark: a callable returning work units done."""

    name: str
    fn: Callable[[], float]
    unit: str
    repeats: int = 3


#: The pinned suite.  Names are stable: they key the JSON record and the
#: regression check, so renaming one orphans its committed baseline.
BENCHMARKS: List[BenchSpec] = [
    BenchSpec("engine_events", _bench_engine_events, "events/s"),
    BenchSpec("packet_alloc", _bench_packet_alloc, "packets/s"),
    BenchSpec("packet_pool", _bench_packet_pool, "packets/s"),
    BenchSpec("link_saturation", _bench_link_saturation, "packets/s"),
    BenchSpec("rio_queue", _bench_rio_queue, "packets/s"),
    BenchSpec("loss_estimator", _bench_loss_estimator, "packets/s"),
    BenchSpec("t1_scenario", _bench_t1_scenario, "runs/s"),
    BenchSpec("sweep_warm", _bench_sweep_warm, "runs/s"),
    BenchSpec("sweep_fault_overhead", _bench_sweep_fault_overhead, "runs/s"),
    BenchSpec("obs_overhead", _bench_obs_overhead, "runs/s"),
    BenchSpec("population_1000", _bench_population_1000, "runs/s", repeats=1),
    BenchSpec(
        "population_100k_hybrid",
        _bench_population_100k_hybrid,
        "runs/s",
        repeats=1,
    ),
]


def run_suite(repeats: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Run every benchmark, best-of-``repeats``, returning name → metrics.

    Each metric dict has ``rate`` (work units per second, higher is
    better) and ``seconds`` (best wall clock of one repetition).
    """
    results: Dict[str, Dict[str, float]] = {}
    for spec in BENCHMARKS:
        best = float("inf")
        units = 0.0
        for _ in range(repeats if repeats is not None else spec.repeats):
            start = time.perf_counter()
            units = spec.fn()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
        results[spec.name] = {
            "rate": units / best if best > 0 else 0.0,
            "seconds": best,
        }
    return results


# ----------------------------------------------------------------------
# record file handling
# ----------------------------------------------------------------------
def load_record(path: Path) -> Optional[dict]:
    """Load a BENCH_core.json record, or None when absent/unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def write_record(
    path: Path,
    current: Dict[str, Dict[str, float]],
    baseline: Optional[Dict[str, Dict[str, float]]] = None,
) -> dict:
    """Write the benchmark record, preserving any existing baseline.

    The ``baseline`` section is frozen at the pre-optimization numbers:
    it is only taken from the argument (or an existing file) and never
    overwritten by a plain re-run, so the committed speedup ratios stay
    anchored to the seed engine.
    """
    path = Path(path)
    if baseline is None:
        existing = load_record(path)
        # a record written before any baseline existed stores
        # "baseline": null — treat that the same as no record
        baseline = ((existing or {}).get("baseline") or {}).get("metrics")
    record = {
        "schema": 1,
        "suite": [spec.name for spec in BENCHMARKS],
        "baseline": {"metrics": baseline} if baseline else None,
        "current": {"metrics": current},
        "speedup": {
            name: current[name]["rate"] / baseline[name]["rate"]
            for name in current
            if baseline and name in baseline and baseline[name]["rate"] > 0
        },
    }
    atomic_write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def append_history(directory: Path, record: dict) -> Path:
    """Write a timestamped snapshot of ``record`` under ``directory``.

    ``bench --history <dir>`` calls this after every record write, so a
    directory of ``BENCH_<UTC timestamp>.json`` files accumulates the
    perf trajectory across runs (nightly CI uploads it as an artifact).
    Snapshots are never overwritten: a same-second collision gets a
    numeric suffix.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = directory / f"BENCH_{stamp}.json"
    suffix = 1
    while path.exists():
        path = directory / f"BENCH_{stamp}_{suffix}.json"
        suffix += 1
    atomic_write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def check_regression(
    committed: dict,
    fresh: Dict[str, Dict[str, float]],
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Compare a fresh run against the committed record.

    Returns a list of human-readable failures (empty = pass): any
    benchmark whose fresh rate falls more than ``tolerance`` below the
    committed ``current`` rate is a regression.
    """
    failures: List[str] = []
    committed_metrics = (committed.get("current") or {}).get("metrics") or {}
    for name, metrics in committed_metrics.items():
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run")
            continue
        # a hand-edited or truncated record must fail loudly, not with
        # an AttributeError deep in the comparison
        if not isinstance(metrics, dict) or "rate" not in metrics:
            failures.append(
                f"{name}: committed record entry is malformed "
                f"(expected a metrics object with a 'rate'); "
                f"re-run `bench` to rewrite the record"
            )
            continue
        committed_rate = metrics.get("rate", 0.0)
        fresh_rate = fresh[name]["rate"]
        if committed_rate > 0 and fresh_rate < (1.0 - tolerance) * committed_rate:
            failures.append(
                f"{name}: {fresh_rate:,.0f}/s is "
                f"{(1 - fresh_rate / committed_rate) * 100:.0f}% below the "
                f"committed {committed_rate:,.0f}/s (tolerance {tolerance:.0%})"
            )
    return failures


# ----------------------------------------------------------------------
# trace probes: exact fingerprints of deterministic runs
# ----------------------------------------------------------------------
def engine_trace_probe(seed: int = 0, n_events: int = 4000) -> Dict[str, object]:
    """Churn the raw engine and fingerprint the exact firing sequence.

    Schedules a seeded random mix of one-shot and rescheduling events
    with cancellation churn, then digests every ``(time, tag)`` firing
    in order.  Any change to event ordering, tie-breaking or
    cancellation semantics changes the digest.
    """
    sim = Simulator(seed=seed)
    rng = sim.rng("probe")
    digest = hashlib.sha256()
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
    fingerprint["fct_sum"] = repr(sum(c.duration for c in done))
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


#: The (seed, protocol) grid fingerprinted by the golden tests.
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


def capture_goldens() -> Dict[str, object]:
    """Run every trace probe and return the full golden fingerprint set."""
    return {
        "engine": {
            str(seed): engine_trace_probe(seed=seed) for seed in (0, 1, 2)
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
    }
