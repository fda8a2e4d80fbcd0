"""Command-line front end for the sweep runner and campaigns.

Usage::

    python -m repro.harness list
    python -m repro.harness run af_assurance
    python -m repro.harness run af_assurance \
        --sweep protocol=tcp,gtfrc --sweep target_bps=2e6,6e6 \
        --set duration=20 --seeds 0,1 --workers 4 --format csv

``run`` builds a :class:`repro.api.Experiment` over the scenario's
sweep grid (the registered default when no ``--sweep`` is given),
memoizing results as one pickle per run under ``--cache-dir``
(default ``.sweep-cache/``; ``--no-cache`` disables), and emits the
:class:`repro.api.ResultSet` in the requested ``--format``: the
fixed-width ``table`` (one row per run: swept parameters followed by
the result's declared metrics, plus a run-count summary), or the
machine-readable ``csv`` / ``json`` exports (data only, no summary
line, so output pipes cleanly).

``run`` is fault-tolerant by default (PR 7): a crashed, hung or
erroring run is retried up to ``--max-retries`` times (with
``--run-timeout`` reaping hung runs), a cell that exhausts its
retries becomes a terminal failure *kept in the output* (a ``status``
column appears, aggregates skip the cell), and a failure summary
footer goes to stderr with exit status 1 — stdout stays pipeable
data either way.  ``--resume`` re-runs only the missing/failed cells
of an interrupted sweep (journaled manifest next to the memo cache);
``--strict`` restores abort-on-first-error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.api import Experiment
from repro.harness.registry import ScenarioSpec, get_scenario, list_scenarios
from repro.harness.runner import RunRecord
from repro.harness.tables import format_table

#: Environment default for ``--workers`` (CLI only; the library default
#: stays the serial ``workers=1``).
SWEEP_WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def _default_workers() -> int:
    value = os.environ.get(SWEEP_WORKERS_ENV, "").strip()
    if not value:
        return 1
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"{SWEEP_WORKERS_ENV} must be an integer, got {value!r}"
        ) from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.harness``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "campaign":
        return _cmd_campaign(parser, args)
    parser.print_help()
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Run registered experiment scenarios over parameter sweeps.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list registered scenarios and their grids")
    run = sub.add_parser("run", help="sweep one scenario and print a table")
    _add_sweep_arguments(run)
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume this sweep from its journaled manifest: re-run "
        "only missing/failed cells (requires caching; the grid and "
        "code must be unchanged)",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first terminal failure instead of keeping "
        "partial results (the pre-PR-7 behaviour)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    run.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        dest="output_format",
        help="result rendering: fixed-width table (default) or the "
        "ResultSet csv/json export (data only — the summary line is "
        "omitted so output pipes cleanly)",
    )
    run.add_argument(
        "-v", "--verbose",
        action="store_true",
        help="print sweep internals to stderr after the run: cache "
        "hit/miss counts and the warm worker-pool lifecycle counters "
        "(created/reused/transient/repaired)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="render live progress on stderr (done/failed/retried, ETA, "
        "per-worker utilization) — stdout stays pure data",
    )
    run.add_argument(
        "--trace-summary",
        action="store_true",
        help="record structured span traces for every cell (JSONL next "
        "to the sweep manifest when caching is on) and print the span "
        "summary table to stderr",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="wrap each fresh run in cProfile (REPRO_PROFILE=1 twin) "
        "and print the aggregated hotspot table to stderr",
    )
    metrics = sub.add_parser(
        "metrics",
        help="sweep one scenario with the metrics plane on; export the "
        "registry",
        description=(
            "Run a sweep exactly like `run` but with the process-wide "
            "metrics registry enabled (REPRO_METRICS=1 equivalent), then "
            "print the harvested series — engine events, queue "
            "accept/drop counters per color, sweep cell/retry/failure "
            "counts, cache and warm-pool statistics — to stdout as JSON "
            "or Prometheus text exposition format."
        ),
    )
    _add_sweep_arguments(metrics)
    metrics.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        dest="output_format",
        help="export format for the registry snapshot (default: json)",
    )
    campaign = sub.add_parser(
        "campaign",
        help="run multi-scenario campaigns with durable, resumable results",
        description=(
            "Run many scenario sweeps as one named unit into a durable "
            "directory (spec + provenance, per-scenario exports, integrity "
            "manifest, fsync'd checkpoint journal, generated report). "
            "A killed campaign resumes from its journal; verify re-checks "
            "every artifact hash. See docs/campaigns.md."
        ),
    )
    camp_sub = campaign.add_subparsers(dest="campaign_command")
    camp_run = camp_sub.add_parser(
        "run", help="execute a campaign spec file into a directory"
    )
    camp_run.add_argument(
        "spec", type=Path, metavar="SPEC.json",
        help="campaign spec file (name + jobs; see docs/campaigns.md)",
    )
    camp_run.add_argument(
        "--dir", type=Path, required=True, dest="directory", metavar="DIR",
        help="campaign directory (created; re-running over the same "
        "directory requires an unchanged spec)",
    )
    camp_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override every job's worker count for this invocation",
    )
    camp_resume = camp_sub.add_parser(
        "resume",
        help="complete the missing/failed scenarios of a killed campaign",
    )
    camp_resume.add_argument("directory", type=Path, metavar="DIR")
    camp_resume.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override every job's worker count for this invocation",
    )
    camp_verify = camp_sub.add_parser(
        "verify",
        help="re-check every tracked artifact hash; quarantine corruption",
    )
    camp_verify.add_argument("directory", type=Path, metavar="DIR")
    camp_verify.add_argument(
        "--no-quarantine", action="store_true",
        help="report corruption without moving files aside",
    )
    camp_report = camp_sub.add_parser(
        "report", help="regenerate report.md from the on-disk state and print it"
    )
    camp_report.add_argument("directory", type=Path, metavar="DIR")
    return parser


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-definition arguments shared by ``run`` and ``metrics``."""
    parser.add_argument(
        "scenario", help="registered scenario name (see `list`)"
    )
    parser.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="PARAM=V1,V2,...",
        help="sweep axis; repeatable; replaces the default grid",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="fixed",
        metavar="PARAM=VALUE",
        help="fixed parameter override applied to every run; repeatable",
    )
    parser.add_argument(
        "--seeds",
        default=None,
        metavar="S1,S2,...",
        help="seeds crossed with every grid point",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (0 = one per CPU; default 1 = serial, or "
        "the REPRO_SWEEP_WORKERS environment variable when set)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(".sweep-cache"),
        help="result memo directory, one pickle per run, with the "
        "sweep's manifest next to it (default: ./.sweep-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every run; read and write no memo and no "
        "manifest (so --resume cannot be used)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry each crashed/timed-out/failed run up to N extra "
        "times with exponential backoff before recording it as a "
        "terminal failure (default 0: no retries)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock deadline; a run past it has its worker "
        "killed and counts as a failed attempt (forces pool execution "
        "even with --workers 1)",
    )


def _build_experiment(
    spec: ScenarioSpec, args: argparse.Namespace
) -> Experiment:
    """Build the :class:`Experiment` from the shared sweep arguments."""
    workers = args.workers if args.workers is not None else _default_workers()
    experiment = Experiment(spec).workers(workers or None).cache(
        None if args.no_cache else args.cache_dir
    )
    experiment.retries(args.max_retries).timeout(args.run_timeout)
    if args.sweep:
        experiment.sweep(_parse_grid(spec, args.sweep))
    if args.fixed:
        experiment.configure(
            **dict(_parse_pair(spec, pair) for pair in args.fixed)
        )
    if args.seeds:
        experiment.seeds(int(s) for s in args.seeds.split(",") if s)
    return experiment


def _cmd_list() -> int:
    rows = []
    for spec in list_scenarios():
        grid = " ".join(
            f"{k}={','.join(str(v) for v in vs)}"
            for k, vs in spec.default_grid.items()
        )
        rows.append([spec.name, grid or "-", spec.description])
    print(format_table(["scenario", "default grid", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        if args.resume and args.no_cache:
            raise ValueError(
                "--resume needs the memo cache; drop --no-cache"
            )
        experiment = _build_experiment(spec, args)
        if args.trace_summary:
            experiment.trace(True)
        if args.profile:
            experiment.profile(True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # machine-readable formats keep stdout pure data; progress moves
    # to stderr there so `... --format csv > out.csv` stays clean
    progress_stream = sys.stdout if args.output_format == "table" else sys.stderr

    def progress(record: RunRecord) -> None:
        if not args.quiet:
            if not record.ok:
                state = f"FAILED:{record.result.failure_kind}"
            elif record.cached:
                state = "cached"
            else:
                state = f"{record.elapsed:.2f}s"
            print(
                f"  [{state}] {record.scenario} {record.params}",
                file=progress_stream,
                flush=True,
            )

    renderer = None
    if args.progress:
        from repro.obs.progress import ProgressRenderer

        renderer = ProgressRenderer(
            total=experiment.n_cells(), stream=sys.stderr
        )

    started = time.perf_counter()
    try:
        results = experiment.run(
            progress=progress,
            on_failure="raise" if args.strict else "keep",
            resume=args.resume,
            observer=renderer,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if renderer is not None:
            renderer.close()
    wall = time.perf_counter() - started
    if args.output_format == "csv":
        print(results.to_csv(), end="")
    elif args.output_format == "json":
        print(results.to_json())
    else:
        print(results.table(title=f"sweep: {spec.name}"))
        fresh = sum(1 for r in results if not r.cached)
        print(
            f"\n{len(results)} runs ({fresh} computed, "
            f"{len(results) - fresh} cached) in {wall:.2f}s wall"
        )
    if args.verbose:
        from repro.harness.runner import warm_pool_stats

        hits = sum(1 for r in results if r.cached)
        print(
            f"cache: {hits} hits, {len(results) - hits} misses",
            file=sys.stderr,
        )
        pool_stats = warm_pool_stats()
        print(
            "warm pool: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(pool_stats.items())
            ),
            file=sys.stderr,
        )
    if args.trace_summary and results.spans is not None:
        from repro.obs.spans import format_span_summary

        print(format_span_summary(results.spans), file=sys.stderr)
    if args.profile:
        from repro.obs.profiling import hotspot_table, merge_profiles

        merged = merge_profiles(r.profile for r in results)
        print(hotspot_table(merged), file=sys.stderr)
    failures = results.failures()
    if len(failures):
        # the failure summary goes to stderr so csv/json stdout stays
        # pure data even for a partial sweep
        print(
            f"\n{len(failures)} of {len(results)} runs failed terminally "
            f"(coverage {results.coverage():.0%}):",
            file=sys.stderr,
        )
        for record in failures:
            failure = record.result
            print(
                f"  {record.params} -> {failure.failure_kind} "
                f"({failure.error}: {failure.message}) "
                f"after {failure.attempts} attempt(s)",
                file=sys.stderr,
            )
        print(
            "re-run with --resume to retry only the failed cells",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a sweep with the metrics plane on; export the registry."""
    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    from repro.obs.metrics import enable_metrics, registry

    # enable BEFORE any simulator is built so engine/link harvesting is
    # armed for the in-process runs; worker processes publish through
    # the sweep-level harvest either way
    enable_metrics()
    try:
        experiment = _build_experiment(spec, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        results = experiment.run(on_failure="keep")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "prometheus":
        print(registry().to_prometheus(), end="")
    else:
        print(registry().to_json_text())
    if results.has_failures:
        failed = results.failures()
        print(
            f"{len(failed)} of {len(results)} runs failed terminally "
            f"(coverage {results.coverage():.0%})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_campaign(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> int:
    from repro.campaign import (
        Campaign,
        CampaignError,
        load_spec,
        resume_campaign,
        verify_campaign,
        write_report,
    )

    command = getattr(args, "campaign_command", None)
    if command is None:
        parser.parse_args(["campaign", "--help"])
        return 2

    try:
        if command == "run":
            spec = load_spec(args.spec)
            run = Campaign.from_spec(spec).run(
                args.directory, workers=args.workers,
            )
        elif command == "resume":
            run = resume_campaign(args.directory, workers=args.workers)
        elif command == "verify":
            report = verify_campaign(
                args.directory, quarantine=not args.no_quarantine,
            )
            print(report.summary())
            return 0 if report.ok else 1
        else:  # report
            print(write_report(args.directory), end="")
            return 0
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(run.summary())
    degraded = [o for o in run.outcomes.values() if o.status != "ok"]
    if degraded:
        print(
            f"{len(degraded)} of {len(run.outcomes)} jobs degraded "
            f"(see {run.report_path}); "
            f"`campaign resume {run.directory}` retries failed jobs",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_grid(
    spec: ScenarioSpec, sweeps: Sequence[str]
) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for sweep in sweeps:
        name, _, values = sweep.partition("=")
        if name in grid:
            raise ValueError(
                f"--sweep {name} given twice; use one comma-separated list"
            )
        parsed = [spec.coerce(name, v) for v in values.split(",") if v]
        if not parsed:
            raise ValueError(f"--sweep needs PARAM=V1,V2,... (got {sweep!r})")
        grid[name] = parsed
    return grid


def _parse_pair(spec: ScenarioSpec, pair: str) -> tuple:
    name, _, value = pair.partition("=")
    if not _ or value == "":
        raise ValueError(f"--set needs PARAM=VALUE (got {pair!r})")
    return name, spec.coerce(name, value)
