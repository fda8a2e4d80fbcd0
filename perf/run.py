#!/usr/bin/env python3
"""The repo benchmark: five workloads, four end-to-end metrics, a per-layer ledger.

One run of one workload, as the benchmark driver calls it::

    python3 perf/run.py --workload af_dumbbell --seed 1 --seconds 12 --trace 0

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Without
``--workload`` it runs all five both ways and can ``--out`` the result
for ``--compare A.json B.json``.  See ``perf/README.md``.

Every workload runs in a fresh subprocess of this file (``--child``)
with all ``REPRO_*`` variables scrubbed; this parent never imports
``repro``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
if __package__ in (None, ""):  # run as a script: make `perf` and `repro` importable
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf import trace as tracing  # noqa: E402  (stdlib-only; no repro import)

OUT = PERF / "out"
EXPECTED = PERF / "expected"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("af_dumbbell", "churn_1000", "hybrid_100k", "sweep_dispatch",
             "sweep_cached")
#: Run, traced and compared like the rest, but not listed in
#: BENCHMARK.json: 72 % of a ``sweep_cached`` op is the latency of 130
#: ``os.fsync`` calls, which on shared storage sits at 25, 40 or 55 ms
#: per op for tens of seconds at a time.  Its spread over ten runs was
#: 10-37 % (perf/README.md, "Noise floor"); no bound up to the driver's
#: 25 % cap holds that, and a gate that trips on the host's disk is
#: worse than none.  Its counts and ``cache_load_s`` stay in the ledger.
UNGATED = ("sweep_cached",)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
#: Set-ups timed per run (fresh subprocesses); ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed ops in a run, however short ``--seconds`` is.
MIN_OPS = 3
#: Share of ``--seconds`` a traced run spends on the untraced reference ops.
TRACED_REFERENCE_SHARE = 0.4
#: Counts that depend on scheduling, not on the code: never compared exactly.
INEXACT_COUNTS = ("harness.pool.wait_calls",)


# ----------------------------------------------------------------------
# the workload subprocess
# ----------------------------------------------------------------------
class Checker:
    """Counts ops and decides which failed.

    An op fails if it raised, if its result differs from an earlier op
    of this run with the same key, or if it differs from the pinned
    result in ``perf/expected/``.  A key with no pin is ``unpinned``:
    it is still held to op-to-op equality.
    """

    def __init__(self, pins: Dict[str, Any]):
        self.pins = pins
        self.seen: Dict[str, Any] = {}
        self.attempted = 0
        self.unpinned = 0
        self.failures: List[str] = []

    def record(self, key: str, prints: Any, error: str = "") -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{key}: {error}")
            return
        if prints != self.seen.setdefault(key, prints):
            self.failures.append(f"{key}: differs from the previous op of this run")
        elif key not in self.pins:
            self.unpinned += 1
        elif prints != self.pins[key]:
            self.failures.append(f"{key}: differs from the pinned result")


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED / f"{workload}.seed{seed}.json"


def load_pins(workload: str, seed: int) -> Dict[str, Any]:
    path = expected_path(workload, seed)
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def run_op(wl: Any, j: int, checker: Checker) -> Tuple[float, float]:
    """One checked op; returns its (wall, cpu) seconds."""
    wl.prepare(j)
    gc.collect()
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        prints, cells_cpu = wl.op(j)
        error = ""
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        traceback.print_exc(file=sys.stderr)
        prints, cells_cpu = None, 0.0
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start + cells_cpu
    checker.record(wl.key(j), prints, error)
    return wall, cpu


def child_main(plan: Dict[str, Any]) -> int:
    """Set up one workload, run its ops, print one JSON report line.

    ``plan["mode"]``: ``probe`` stops after set-up, ``timed`` runs ops
    over the seed panel for ``seconds``, ``traced`` times op 0 only and
    then runs the traced passes on it, ``pin`` runs each panel op once
    and reports the results for ``--write-expected``.
    """
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        raise RuntimeError(f"REPRO_* variables reached the workload: {leaked}")
    from perf import workloads  # imports repro: part of the set-up time

    mode, smoke = plan["mode"], plan["smoke"]
    wl = workloads.make(plan["workload"], plan["seed"], smoke, OUT / "tmp")
    pins = {} if smoke or mode == "pin" else load_pins(wl.name, plan["seed"])
    checker = Checker(pins)
    report: Dict[str, Any] = {"workers": wl.workers}
    try:
        wl.setup()
        for j in range(wl.warmups):
            run_op(wl, j, checker)
        report["setup_s"] = time.time() - plan["t0"]
        if mode == "pin":
            for j in range(wl.panel):
                run_op(wl, j, checker)
            report["results"] = checker.seen
        elif mode != "probe":
            traced = mode == "traced"
            budget = plan["seconds"] * (TRACED_REFERENCE_SHARE if traced else 1.0)
            floor = 1 if smoke else MIN_OPS
            samples: List[Tuple[float, float]] = []
            deadline = time.perf_counter() + budget
            while len(samples) < floor or time.perf_counter() < deadline:
                samples.append(run_op(wl, 0 if traced else len(samples), checker))
            report["wall"] = [wall for wall, _ in samples]
            report["cpu"] = [cpu for _, cpu in samples]
            if traced:
                tracer = tracing.Tracer()
                metrics, notes, errors = wl.trace(
                    tracer, statistics.median(report["wall"]),
                    checker.seen.get(wl.key(0)),
                )
                checker.attempted += 1
                checker.failures.extend(f"trace: {e}" for e in errors)
                tracer.write(OUT / f"trace-{wl.name}.jsonl")
                report["per_layer"], report["notes"] = metrics, notes
    finally:
        wl.teardown()  # joins the pool workers, so RUSAGE_CHILDREN is final
    report["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    report.update(attempted=checker.attempted, unpinned=checker.unpinned,
                  failures=checker.failures)
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
# the parent: spawn, collect, report
# ----------------------------------------------------------------------
def scrubbed_env() -> Tuple[Dict[str, str], List[str]]:
    """The environment minus every ``REPRO_*`` switch, and what was dropped."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    return {k: v for k, v in os.environ.items() if k not in dropped}, dropped


def spawn(workload: str, seed: int, seconds: float, mode: str,
          smoke: bool = False) -> Dict[str, Any]:
    """Run one workload subprocess to completion and parse its report."""
    env, _ = scrubbed_env()
    plan = dict(workload=workload, seed=seed, seconds=seconds, mode=mode,
                smoke=smoke, t0=time.time())
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--child", json.dumps(plan)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload subprocess {workload}/{mode} exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Dict[str, Any]:
    """One run of one workload: its metrics, op counts and failures.

    A timed run reports the end-to-end metrics (with ``setup_s`` taken
    over :data:`SETUP_REPEATS` fresh subprocesses), a traced run the
    per-layer ones; a smoke run is one traced subprocess reporting both.
    """
    timed = not trace or smoke
    setups = []
    if timed and not smoke:
        setups = [spawn(workload, seed, 0, "probe")["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
    report = spawn(workload, seed, seconds, "traced" if trace else "timed", smoke)
    setups.append(report["setup_s"])
    run: Dict[str, Any] = {
        "workload": workload,
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "unpinned": report["unpinned"],
        "failures": report["failures"],
        "workers": report["workers"],
    }
    if timed:
        run["end_to_end"] = {
            "wall_s": statistics.median(report["wall"]),
            "cpu_s": statistics.median(report["cpu"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        run["samples"] = {"wall_s": report["wall"], "cpu_s": report["cpu"],
                          "setup_s": setups}
    if trace:
        measured = report["per_layer"]
        run["per_layer"] = {
            name: measured.get(name, 0) for name in tracing.PER_LAYER_UNITS
        }
        run["notes"] = report["notes"]
    return run


def tail_percentile(n: int) -> Optional[int]:
    """The highest percentile with at least ten samples beyond it."""
    return int(100 * (1 - 10 / n)) if n >= 20 else None


def print_run(run: Dict[str, Any]) -> None:
    name = run["workload"]
    if "end_to_end" in run:
        for metric, unit in END_TO_END:
            line = f"{name}  {metric} = {run['end_to_end'][metric]:.6g} {unit}"
            samples = sorted(run["samples"].get(metric, ()))
            if len(samples) >= 2:
                q1, _, q3 = statistics.quantiles(samples, n=4)
                line += f"  (p25 {q1:.4g}, p75 {q3:.4g}, n {len(samples)}"
                tail = tail_percentile(len(samples))
                if tail is not None:
                    at = samples[min(len(samples) - 1, len(samples) * tail // 100)]
                    line += f", p{tail} {at:.4g}"
                line += ")"
            print(line)
    if "per_layer" in run:
        for metric, value in run["per_layer"].items():
            print(f"{name}  {metric} = {value:.6g} {tracing.PER_LAYER_UNITS[metric]}")
        for note, value in run["notes"].items():
            print(f"{name}  {note} = {value:.6g}")
    print(f"{name}  ops attempted {run['attempted']}, failed {run['failed']}, "
          f"unpinned {run['unpinned']}")
    for failure in run["failures"]:
        print(f"{name}  FAILED {failure}")


def driver_line(run: Dict[str, Any], trace: bool) -> str:
    """The last stdout line of a single-workload run (the driver's contract)."""
    if trace:
        units, values = tracing.PER_LAYER_UNITS, run["per_layer"]
    else:
        units, values = dict(END_TO_END), run["end_to_end"]
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    })


def stamp(workers: int) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        head = "unknown"  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sweep_workers": workers,
        "scratch_dir": str(OUT / "tmp"),
        "scratch_filesystem": filesystem_of(OUT),
        "git_head": head,
        "scrubbed_env": scrubbed_env()[1],
    }


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        _, mount, fstype = line.split()[:3]
        if target.startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def run_suite(seed: int, seconds: float, repeat: int, smoke: bool,
              out: Optional[Path]) -> int:
    """Every workload, timed then traced; print, verify, optionally save."""
    doc: Dict[str, Any] = {"seed": seed, "seconds": seconds, "smoke": smoke,
                           "workloads": {}}
    failed = 0
    for name in WORKLOADS:
        runs = []
        if smoke:
            runs.append(measure(name, seed, 0, trace=True, smoke=True))
        else:
            runs += [measure(name, seed, seconds, trace=False) for _ in range(repeat)]
            runs.append(measure(name, seed, seconds, trace=True))
        for run in runs:
            print_run(run)
        timed = [r for r in runs if "end_to_end" in r]
        doc["workloads"][name] = {
            "end_to_end": {
                metric: [r["end_to_end"][metric] for r in timed]
                for metric, _ in END_TO_END
            },
            "per_layer": runs[-1]["per_layer"],
            "notes": runs[-1]["notes"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "unpinned": sum(r["unpinned"] for r in runs),
        }
        failed += doc["workloads"][name]["failed"]
    doc["stamp"] = stamp(runs[-1]["workers"])  # the last workload is a sweep
    if out is not None:
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "failed": failed,
                      "stamp": doc["stamp"]}))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> Tuple[float, str]:
    """``(ratio B/A, ok | regressed | unresolved)`` for one metric.

    A spread (quartile distance over median, either side) wider than
    the bound makes the pairing ``unresolved`` — unless every run of one
    side beats every run of the other, which settles it regardless.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a
    worse = ratio - 1 if better == "lower" else 1 - ratio
    spread = max(
        (q3 - q1) / med for (q1, q3), med in
        ((quartiles(a), med_a), (quartiles(b), med_b))
    )
    if better == "lower":
        b_all_worse, b_all_better = min(b) > max(a), max(b) < min(a)
    else:
        b_all_worse, b_all_better = max(b) < min(a), min(b) > max(a)
    if worse > bound:
        return ratio, "regressed" if spread <= bound or b_all_worse else "unresolved"
    return ratio, "ok" if spread <= bound or b_all_better else "unresolved"


def compare(path_a: Path, path_b: Path) -> int:
    """One row per workload x end-to-end metric; exit 1 on a regression."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    doc_a = json.loads(path_a.read_text(encoding="utf-8"))
    doc_b = json.loads(path_b.read_text(encoding="utf-8"))
    exact = [
        m["name"] for m in spec["per_layer"]
        if m["unit"] == "count" and m["name"] not in INEXACT_COUNTS
    ]
    bad = 0
    print(f"{'workload':<15} {'metric':<12} {'A median [p25, p75]':>34} "
          f"{'B median [p25, p75]':>34} {'B/A':>7}  bound  verdict")
    for name in WORKLOADS:
        wa, wb = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric in spec["end_to_end"]:
            a, b = (w["end_to_end"][metric["name"]] for w in (wa, wb))
            ratio, word = verdict(a, b, metric["bound"], metric["better"])
            bad += word == "regressed"
            cells = [
                f"{statistics.median(v):.5g} [{quartiles(v)[0]:.5g}, "
                f"{quartiles(v)[1]:.5g}] n={len(v)}" for v in (a, b)
            ]
            print(f"{name:<15} {metric['name']:<12} {cells[0]:>34} {cells[1]:>34} "
                  f"{ratio:7.3f}  {metric['bound']:.2f}   {word}")
        share_a, share_b = (w["failed"] / w["attempted"] for w in (wa, wb))
        rose = share_b > share_a
        bad += rose
        print(f"{name:<15} {'failed_share':<12} {share_a:>34.4g} {share_b:>34.4g} "
              f"{'':>7}  0      {'regressed' if rose else 'ok'}")
        for metric in exact:
            va, vb = wa["per_layer"].get(metric), wb["per_layer"].get(metric)
            if va != vb:
                print(f"{name:<15} count differs: {metric}  A={va}  B={vb}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# --write-expected
# ----------------------------------------------------------------------
def write_expected(seeds: Sequence[int]) -> int:
    """Re-pin ``perf/expected/`` from this commit (benchmark PRs only)."""
    EXPECTED.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for name in WORKLOADS:
            report = spawn(name, seed, 0, "pin")
            if report["failures"]:
                print(f"{name} seed {seed}: {report['failures']}", file=sys.stderr)
                return 1
            doc = {"workload": name, "seed": seed, "results": report["results"]}
            expected_path(name, seed).write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(f"pinned {expected_path(name, seed).relative_to(ROOT)} "
                  f"({len(report['results'])} results)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload (the driver's form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed runs per workload in a full pass")
    parser.add_argument("--out", type=Path, help="write the full pass as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload at reduced size (for tests)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin perf/expected/ for seeds 1 and 2")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(json.loads(args.child))
    if args.compare:
        return compare(*args.compare)
    if args.write_expected:
        return write_expected((1, 2))
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    try:
        if args.workload is None:
            return run_suite(args.seed, seconds, args.repeat, args.smoke, args.out)
        run = measure(args.workload, args.seed, seconds, bool(args.trace))
        print_run(run)
        print(driver_line(run, bool(args.trace)))
        return 0
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
