"""The five benchmark workloads and their traced passes.

Everything here drives ``repro`` through public functions only.  One
*op* is what a user waits for: a scenario run (``af_dumbbell``,
``churn_1000``, ``hybrid_100k``) or a ``run_matrix`` sweep
(``sweep_dispatch``, ``sweep_cached``).  A workload object is created
inside its own subprocess by ``perf/run.py``; importing this module
imports ``repro``, which is part of the measured set-up time.

Inputs come from ``--seed S``: op ``j`` of a simulation workload runs
scenario seed ``S * 1000 + j % panel`` — a fixed panel of inputs per
``S``, because one scenario seed alone makes ``churn_1000`` up to 30 %
faster or slower than the next and a run's median has to be a property
of the code, not of the draw.  A sweep crosses the 64 cell seeds
``S * 64 .. S * 64 + 63``.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

_import_start = time.perf_counter()
import repro  # noqa: E402
from repro.fluid import hybridize
from repro.harness import runner
from repro.harness import pool as pool_mod
from repro.harness.experiments import (
    AfResult,
    HybridFlashCrowdResult,
    MiceElephantsResult,
    flash_crowd_population,
    flash_crowd_spec,
    mice_elephants_spec,
)
from repro.harness.experiments import flash_crowd as flash_crowd_mod
from repro.harness.experiments import mice_elephants as mice_elephants_mod
from repro.fluid import derive as fluid_derive_mod
from repro.harness.registry import get_scenario
from repro.harness.runner import run_matrix, shutdown_warm_pool, warm_pool_stats
from repro.metrics.fct import fct_summary
from repro.metrics.fluid import background_summary
from repro.sim.engine import Simulator
from repro.sim.packet import Color
from repro.topo import build, t1_dumbbell_spec

from perf import trace as tracing

#: Seconds this process spent importing ``repro`` and registering every
#: scenario (the imports above pull in the whole registry); reported as
#: ``harness.registry.load_s`` together with the ``get_scenario`` lookup.
REGISTRY_LOAD_S = time.perf_counter() - _import_start

#: ``repro`` package directory, for bucketing profiled frames by file.
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent) + os.sep

SEED_STRIDE = 1000

def fingerprint(result: Any) -> str:
    """``repr`` of a scenario result's declared metrics (float-exact)."""
    return repr(result.metrics())


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
#: scenario name, full-size parameters, reduced ``--smoke`` overrides,
#: warm-up ops, and how many scenario seeds the op panel cycles over.
SIMS: Dict[str, Dict[str, Any]] = {
    "af_dumbbell": dict(
        scenario="af_assurance",
        params=dict(protocol="qtpaf", target_bps=4e6, n_cross=4,
                    duration=10.0, warmup=2.0),
        smoke=dict(duration=1.0, warmup=0.2),
        warmups=2,
        panel=64,
    ),
    "churn_1000": dict(
        scenario="mice_elephants",
        params=dict(protocol="gtfrc", n_hosts=64, n_flows=1000,
                    arrival_rate_per_s=250.0, elephant_share=0.02,
                    duration=6.0),
        smoke=dict(n_flows=50, duration=1.0),
        warmups=2,
        panel=64,
    ),
    "hybrid_100k": dict(
        scenario="hybrid_flash_crowd",
        params=dict(fidelity="hybrid", n_flows=100_000, n_hosts=64,
                    base_rate_per_s=2000.0, peak_rate_per_s=30000.0,
                    ramp_start=1.0, ramp_duration=2.0, bottleneck_bps=2e9,
                    target_bps=40e6, duration=6.0),
        smoke=dict(n_flows=2000, duration=1.0, warmup=0.2, ramp_start=0.2,
                   ramp_duration=0.4),
        warmups=1,
        panel=16,
    ),
}


def _spec_af(tr: tracing.Tracer, p: Mapping[str, Any]):
    with tr.span("topo.compile"):
        return t1_dumbbell_spec(
            p["protocol"], p["target_bps"], n_cross=p["n_cross"],
            bottleneck_bps=p["bottleneck_bps"],
            bottleneck_delay=p["bottleneck_delay"],
            access_delay=p["access_delay"],
            assured_access_delay=p["assured_access_delay"],
            cross_record=True,
        )


def _summarise_af(p, spec, sim, built) -> AfResult:
    stats = built.queue("left", "right").stats
    green_offered = (
        stats.accepts_by_color[Color.GREEN] + stats.drops_by_color[Color.GREEN]
    )
    out_offered = stats.offered - green_offered
    out_drops = stats.dropped - stats.drops_by_color[Color.GREEN]
    window = (p["warmup"], p["duration"])
    return AfResult(
        protocol=p["protocol"],
        target_bps=p["target_bps"],
        achieved_bps=built.recorder("assured").mean_rate_bps(*window),
        green_drop_ratio=stats.color_drop_ratio(Color.GREEN),
        out_drop_ratio=out_drops / out_offered if out_offered else 0.0,
        cross_total_bps=sum(
            built.recorder(f"x{i}").mean_rate_bps(*window)
            for i in range(1, 1 + p["n_cross"])
        ),
    )


def _spec_churn(tr: tracing.Tracer, p: Mapping[str, Any]):
    # generator + apply_slas; the expansion inside shows as a child span
    with tr.span("topo.compile"):
        return mice_elephants_spec(
            p["protocol"], p["target_bps"], n_hosts=p["n_hosts"],
            n_flows=p["n_flows"], arrival_rate_per_s=p["arrival_rate_per_s"],
            elephant_share=p["elephant_share"],
            bottleneck_bps=p["bottleneck_bps"], duration=p["duration"],
            seed=p["seed"],
        )


def _summarise_churn(p, spec, sim, built) -> MiceElephantsResult:
    done = built.completions()
    mice = fct_summary([c for c in done if c.flow_id.startswith("mice")])
    elephants = fct_summary([c for c in done if c.flow_id.startswith("elephant")])
    return MiceElephantsResult(
        protocol=p["protocol"],
        target_bps=p["target_bps"],
        n_mice=sum(1 for f in spec.flows if f.transport == "tcp"),
        n_elephants=sum(1 for f in spec.flows if f.transport == p["protocol"]),
        mice_completed=mice.completed,
        elephants_completed=elephants.completed,
        mice_fct_mean_s=mice.mean,
        mice_fct_p95_s=mice.p95,
        elephant_fct_mean_s=elephants.mean,
        bottleneck_drops=built.queue("gw", "srv").stats.dropped,
    )


def _spec_hybrid(tr: tracing.Tracer, p: Mapping[str, Any]):
    crowd = dict(
        n_hosts=p["n_hosts"], n_flows=p["n_flows"],
        base_rate_per_s=p["base_rate_per_s"],
        peak_rate_per_s=p["peak_rate_per_s"], ramp_start=p["ramp_start"],
        ramp_duration=p["ramp_duration"], duration=p["duration"],
    )
    with tr.span("topo.compile"):
        spec = flash_crowd_spec(
            p["protocol"], p["target_bps"],
            bottleneck_bps=p["bottleneck_bps"], seed=p["seed"], **crowd,
        )
    with tr.span("fluid.hybridize"):
        return hybridize(
            spec, flash_crowd_population(**crowd), seed=p["seed"],
            epoch=p["epoch"], per_flow_rate_bps=p["bg_flow_rate_bps"],
        )


def _summarise_hybrid(p, spec, sim, built) -> HybridFlashCrowdResult:
    bg = background_summary(built.fluid_sources.values())
    return HybridFlashCrowdResult(
        protocol=p["protocol"],
        fidelity=p["fidelity"],
        target_bps=p["target_bps"],
        achieved_bps=built.recorder("assured").mean_rate_bps(
            p["warmup"], p["duration"]
        ),
        events=sim.events_processed,
        bg_offered_bytes=bg.offered_bytes,
        bg_served_bytes=bg.served_bytes,
        bg_loss_ratio=bg.loss_ratio,
    )


#: The scenario bodies again, cut at the layer seams: ``spec`` and
#: ``summarise`` differ per scenario, ``build`` and ``run`` do not.
#: The phase pass must return exactly what the registered scenario
#: function returns, which is what keeps these copies honest.
PHASES: Dict[str, Tuple[Callable, Callable]] = {
    "af_dumbbell": (_spec_af, _summarise_af),
    "churn_1000": (_spec_churn, _summarise_churn),
    "hybrid_100k": (_spec_hybrid, _summarise_hybrid),
}

#: Modules that imported ``expand_population`` by name; the phase pass
#: wraps each so an expansion shows as a ``traffic.expand`` child span
#: of whichever builder called it.
_EXPAND_SITES = (flash_crowd_mod, mice_elephants_mod, fluid_derive_mod)


class SimWorkload:
    """One registered scenario called over a panel of scenario seeds."""

    def __init__(self, name: str, seed: int, smoke: bool):
        cfg = SIMS[name]
        self.name = name
        self.seed = seed
        self.warmups = 1 if smoke else cfg["warmups"]
        self.panel = cfg["panel"]
        self.workers = 1
        self.params = {**cfg["params"], **(cfg["smoke"] if smoke else {})}
        self.registry_load_s = 0.0
        self._scenario = cfg["scenario"]

    def setup(self) -> None:
        start = time.perf_counter()
        self.spec = get_scenario(self._scenario)
        self.registry_load_s = REGISTRY_LOAD_S + time.perf_counter() - start

    def teardown(self) -> None:
        pass

    def key(self, j: int) -> str:
        """The scenario seed of op ``j`` — what its result is pinned under."""
        return str(self.seed * SEED_STRIDE + j % self.panel)

    def prepare(self, j: int) -> None:
        pass

    def op(self, j: int) -> Tuple[str, float]:
        result = self.spec.fn(**self.params, seed=int(self.key(j)))
        return fingerprint(result), 0.0

    # -- traced passes --------------------------------------------------
    def trace(self, tracer: tracing.Tracer, wall_s: float,
              reference: str) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
        """Phase pass + profile pass on op 0: (metrics, notes, errors)."""
        errors: List[str] = []
        p = {**self.spec.defaults, **self.params, "seed": int(self.key(0))}
        make_spec, summarise = PHASES[self.name]

        for module in _EXPAND_SITES:
            tracer.wrap(
                module, "expand_population", "traffic.expand",
                on_result=lambda span, flows: span.update(flows=len(flows)),
            )
        tracer.op = f"{self.name}/phase"
        gc.collect()
        try:
            with tracer.span("op") as op_span:
                with tracer.span("spec") as spec_span:
                    spec = make_spec(tracer, p)
                with tracer.span("build") as build_span:
                    sim = Simulator(seed=p["seed"])
                    built = build(sim, spec)
                with tracer.span("run") as run_span:
                    sim.run(until=p["duration"])
                with tracer.span("summarise") as summarise_span:
                    result = summarise(p, spec, sim, built)
        finally:
            tracer.unwrap_all()
        if fingerprint(result) != reference:
            errors.append("phase pass result differs from the timed op's")

        op = tracer.op
        spans = tracer.spans
        op_s = tracing.seconds(op_span)
        run_s = tracing.seconds(run_span)
        expands = tracer.named("traffic.expand", op)
        links = built.net.links
        events = sim.events_processed
        hops = sum(link.stats.tx_packets for link in links)
        covered = tracing.duration(
            (spec_span, build_span, run_span, summarise_span)
        )
        out: Dict[str, float] = {
            "harness.registry.load_s": self.registry_load_s,
            "traffic.expand_s": tracing.duration(expands),
            "traffic.flows": sum(s["flows"] for s in expands),
            "topo.compile_s": tracing.self_time_of(spans, "topo.compile", op),
            "fluid.hybridize_s": tracing.self_time_of(spans, "fluid.hybridize", op),
            "topo.build_s": tracing.seconds(build_span),
            "topo.flows_built": len(built.senders),
            "topo.links_built": len(links),
            "sim.engine.run_s": run_s,
            "sim.engine.events": events,
            "sim.engine.ns_per_event": run_s / events * 1e9,
            "sim.engine.sim_s_per_wall_s": p["duration"] / run_s,
            "sim.link.tx_packets": hops,
            "sim.link.ns_per_packet_hop": run_s / hops * 1e9,
            "sim.queues.enqueued": sum(l.queue.stats.enqueued for l in links),
            "sim.queues.dropped": sum(l.queue.stats.dropped for l in links),
            "metrics.summarise_s": tracing.seconds(summarise_span),
            "metrics.recorded_packets": sum(
                r.delivered_packets for r in built.recorders.values()
            ),
            "fluid.epochs": sum(s.epochs for s in built.fluid_sources.values()),
            "trace_overhead": op_s / wall_s,
        }
        notes = {"phase_coverage": covered / op_s}

        tracer.op = f"{self.name}/profile"
        gc.collect()
        with tracer.span("op") as prof_span:
            profiled, layers = tracing.profile_layers(
                lambda: self.spec.fn(**self.params, seed=p["seed"]), PACKAGE_ROOT
            )
        if fingerprint(profiled) != reference:
            errors.append("profiled op result differs from the timed op's")
        for layer, row in layers.items():
            out[f"{layer}.self_s"] = row["share"] * wall_s
            out[f"{layer}.calls"] = row["calls"]
        out["profile_overhead"] = tracing.seconds(prof_span) / wall_s
        return out, notes, errors


# ----------------------------------------------------------------------
# sweep workloads
# ----------------------------------------------------------------------
SWEEP_BASE = dict(target_bps=4e6, n_cross=1, duration=0.5, warmup=0.1,
                  bottleneck_bps=4e6)
SWEEP_GRID = {"protocol": ("qtpaf", "gtfrc")}


class SweepWorkload:
    """``run_matrix`` over 2 protocols x 64 seeds, cache empty or full."""

    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path):
        self.name = name
        self.cached = name == "sweep_cached"
        n_seeds = 4 if smoke else 64
        self.cell_seeds = range(seed * n_seeds, (seed + 1) * n_seeds)
        self.n_cells = 2 * n_seeds
        self.warmups = 1 if smoke or not self.cached else 5
        self.panel = 1  # every op of a run sweeps the same grid
        self.workers = min(2, os.cpu_count() or 1)
        self.scratch = scratch
        self.dir: Optional[Path] = None
        self.registry_load_s = 0.0
        self._fill: Optional[List[str]] = None

    def setup(self) -> None:
        start = time.perf_counter()
        get_scenario("af_assurance")
        self.registry_load_s = REGISTRY_LOAD_S + time.perf_counter() - start
        self.scratch.mkdir(parents=True, exist_ok=True)
        if self.cached:
            # a sweep_dispatch-style fill: what the cached ops read back
            self._fresh_dir()
            self._fill = self._fingerprints(self._sweep(), cached=False)

    def teardown(self) -> None:
        shutdown_warm_pool()
        self._drop_dir()

    def key(self, j: int) -> str:
        return "grid"

    def prepare(self, j: int) -> None:
        if not self.cached:
            self._fresh_dir()

    def op(self, j: int) -> Tuple[List[str], float]:
        records = self._sweep()
        prints = self._fingerprints(records, cached=self.cached)
        if self._fill is not None and prints != self._fill:
            raise AssertionError("cached sweep differs from the pool fill")
        return prints, sum(r.cpu for r in records if not r.cached)

    def _sweep(self) -> List[runner.RunRecord]:
        return run_matrix(
            "af_assurance", SWEEP_GRID, base=SWEEP_BASE, seeds=self.cell_seeds,
            workers=self.workers, cache_dir=self.dir,
        )

    def _fingerprints(self, records, cached: bool) -> List[str]:
        if len(records) != self.n_cells:
            raise AssertionError(f"{len(records)} cells, expected {self.n_cells}")
        if any(r.cached != cached for r in records):
            raise AssertionError(f"expected every cell cached={cached}")
        return [fingerprint(r.result) for r in records]

    def _fresh_dir(self) -> None:
        self._drop_dir()
        self.dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))

    def _drop_dir(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    # -- traced pass ----------------------------------------------------
    def trace(self, tracer: tracing.Tracer, wall_s: float,
              reference: List[str]) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
        """One op with span wrappers on the fabric's boundaries (parent only)."""
        import multiprocessing.connection as mp_connection

        prefix = "harness.runner."
        tracer.wrap(runner.SweepCache, "load", prefix + "cache_load",
                    on_result=lambda span, rec: span.update(hit=rec is not None))
        tracer.wrap(runner.SweepCache, "store", prefix + "cache_store")
        tracer.wrap(runner, "cache_key", prefix + "cache_key")
        tracer.wrap(runner.SweepManifest, "__init__", prefix + "manifest.open")
        tracer.wrap(runner.SweepManifest, "record", prefix + "manifest.record")
        tracer.wrap(runner.SweepManifest, "close", prefix + "manifest.close")
        tracer.wrap(pool_mod.ResilientPool, "run_tasks", "harness.pool.run_tasks")
        tracer.wrap(mp_connection, "wait", "harness.pool.wait")
        tracer.wrap(os, "fsync", "ioutil.fsync")

        errors: List[str] = []
        self.prepare(0)
        gc.collect()
        pool_before = warm_pool_stats()
        tracer.op = f"{self.name}/traced"
        cpu_start = time.process_time()
        try:
            with tracer.span("op") as op_span:
                records = self._sweep()
        finally:
            tracer.unwrap_all()
        parent_cpu = time.process_time() - cpu_start
        pool_after = warm_pool_stats()
        if self._fingerprints(records, cached=self.cached) != reference:
            errors.append("traced op result differs from the timed op's")

        fresh = [r for r in records if not r.cached]
        elapsed = sum(r.elapsed for r in fresh)
        cpu = sum(r.cpu for r in fresh)
        loads = tracer.named(prefix + "cache_load")
        hits = sum(1 for s in loads if s["hit"])
        stores = tracer.named(prefix + "cache_store")
        waits = tracer.named("harness.pool.wait")
        fsyncs = tracer.named("ioutil.fsync")
        run_tasks = tracer.named("harness.pool.run_tasks")
        op_s = tracing.seconds(op_span)
        return {
            "harness.registry.load_s": self.registry_load_s,
            prefix + "parent_cpu_s": parent_cpu,
            prefix + "cells": len(records),
            prefix + "cells_elapsed_s": elapsed,
            prefix + "cells_cpu_s": cpu,
            prefix + "cell_wait_ratio": elapsed / cpu if cpu else 0.0,
            prefix + "cache_key_s": tracing.duration(tracer.named(prefix + "cache_key")),
            prefix + "cache_load_s": tracing.duration(loads),
            prefix + "cache_store_s": tracing.duration(stores),
            prefix + "cache_hits": hits,
            prefix + "cache_misses": len(loads) - hits,
            prefix + "manifest_s": tracing.duration(
                s for s in tracer.spans
                if s["name"].startswith(prefix + "manifest.")
            ),
            prefix + "manifest_entries": len(
                tracer.named(prefix + "manifest.record")
            ),
            prefix + "record_pickle_bytes": sum(
                f.stat().st_size for f in self.dir.glob("*.pkl")
            ) if stores else 0,
            "harness.pool.run_tasks_s": tracing.duration(run_tasks),
            "harness.pool.overhead_s": (
                op_s - elapsed / self.workers if run_tasks else 0.0
            ),
            "harness.pool.wait_calls": len(waits),
            "harness.pool.wait_calls_per_task": (
                len(waits) / len(fresh) if fresh else 0.0
            ),
            "harness.pool.blocked_s": tracing.duration(waits),
            "harness.pool.spawned": pool_after["created"] - pool_before["created"],
            "harness.pool.reused": pool_after["reused"] - pool_before["reused"],
            "harness.pool.repaired": (
                pool_after["repaired"] - pool_before["repaired"]
            ),
            "harness.pool.retries": sum(r.attempts - 1 for r in fresh),
            "ioutil.fsyncs": len(fsyncs),
            "ioutil.fsync_s": tracing.duration(fsyncs),
            "trace_overhead": op_s / wall_s,
        }, {}, errors


NAMES = tuple(SIMS) + ("sweep_dispatch", "sweep_cached")


def make(name: str, seed: int, smoke: bool, scratch: Path):
    """The workload object for ``name`` (KeyError for an unknown name)."""
    if name in SIMS:
        return SimWorkload(name, seed, smoke)
    if name in ("sweep_dispatch", "sweep_cached"):
        return SweepWorkload(name, seed, smoke, scratch)
    raise KeyError(f"unknown workload {name!r}; known: {NAMES}")
