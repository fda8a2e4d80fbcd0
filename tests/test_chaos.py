"""Chaos suite for the fault-tolerant sweep fabric (PR 7).

Every resilience guarantee :func:`repro.harness.runner.run_matrix`
makes is exercised here under *deterministic* injected faults
(:mod:`repro.harness.faults`): worker crashes are repaired, hung runs
are reaped by the per-run timeout, corrupted responses are rejected,
retries recover transient faults, surviving records stay byte-identical
to a fault-free run, terminal failures surface as structured
:class:`~repro.harness.result.RunFailure` records through the
:class:`~repro.api.ResultSet`/:class:`~repro.api.Experiment`/CLI
layers, corrupt cache entries are quarantined, and an interrupted
sweep resumes from its journaled manifest.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Experiment, ResultSet, RunFailure
from repro.harness.faults import (
    CorruptRecord,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    parse_fault_plan,
    plan_from_env,
)
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.harness.runner import (
    CorruptCacheWarning,
    RunRecord,
    SweepManifest,
    SweepRunError,
    run_matrix,
    shutdown_warm_pool,
    warm_pool_stats,
)
from repro.ioutil import read_jsonl


@dataclasses.dataclass
class ChaosProbeResult(ScenarioResult):
    value: float
    doubled: float


@register("chaos_probe", grid={"seed": (0, 1, 2, 3)})
def chaos_probe(
    seed: int = 0, scale: float = 2.0, delay: float = 0.0
) -> ChaosProbeResult:
    """A cheap deterministic scenario for chaos tests (ms per run)."""
    if delay:
        time.sleep(delay)
    value = random.Random(seed).random() * scale
    return ChaosProbeResult(value=value, doubled=value * 2)


GRID = {"seed": (0, 1, 2, 3)}


def result_bytes(records):
    """The byte-identity fingerprint: everything except run metadata."""
    return [
        pickle.dumps((r.scenario, r.params, r.result)) for r in records
    ]


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# ----------------------------------------------------------------------
# the fault plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_object_form(self):
        plan = parse_fault_plan(
            '{"seed": 7, "faults": [{"kind": "hang", "rate": 0.5, '
            '"seconds": 3, "scenario": "x", "match": {"seed": 1}}]}'
        )
        assert plan.seed == 7
        (spec,) = plan.faults
        assert spec.kind == "hang" and spec.rate == 0.5
        assert spec.seconds == 3 and spec.match == {"seed": 1}

    def test_parse_bare_list_form(self):
        plan = parse_fault_plan('[{"kind": "raise"}]')
        assert plan.seed == 0 and plan.faults[0].kind == "raise"

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '"a string"',
            '{"sed": 1}',  # typo'd top-level key
            '{"faults": [{"kind": "raise", "rte": 0.5}]}',  # typo'd rule key
            '{"faults": [{"kind": "frobnicate"}]}',  # unknown kind
            '{"faults": [{"kind": "raise", "rate": 1.5}]}',  # bad rate
            '{"faults": ["raise"]}',  # rule is not an object
        ],
    )
    def test_bad_plans_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault_plan(text)

    def test_env_hook(self, monkeypatch):
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", '[{"kind": "exit"}]')
        plan = plan_from_env()
        assert plan.faults[0].kind == "exit"

    def test_decide_is_deterministic_and_rate_bounded(self):
        plan = FaultPlan(
            seed=3, faults=(FaultSpec(kind="raise", rate=0.3, times=None),)
        )
        cells = [{"seed": s} for s in range(200)]
        first = [plan.decide("s", c, 1) is not None for c in cells]
        second = [plan.decide("s", c, 1) is not None for c in cells]
        assert first == second  # pure function of (plan, cell, attempt)
        hit_rate = sum(first) / len(first)
        assert 0.15 < hit_rate < 0.45  # ~rate, not 0%/100%
        # a different plan seed selects different cells
        other = FaultPlan(
            seed=4, faults=(FaultSpec(kind="raise", rate=0.3, times=None),)
        )
        assert first != [
            other.decide("s", c, 1) is not None for c in cells
        ]

    def test_times_window_limits_attempts(self):
        plan = FaultPlan(faults=(FaultSpec(kind="raise", times=2),))
        assert plan.decide("s", {"seed": 0}, 1) is not None
        assert plan.decide("s", {"seed": 0}, 2) is not None
        assert plan.decide("s", {"seed": 0}, 3) is None

    def test_match_and_scenario_select_cells(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", scenario="a", match={"seed": 1}),
        ))
        assert plan.decide("a", {"seed": 1}, 1) is not None
        assert plan.decide("a", {"seed": 2}, 1) is None
        assert plan.decide("b", {"seed": 1}, 1) is None

    def test_apply_raise_and_corrupt(self):
        plan = FaultPlan(faults=(FaultSpec(kind="raise"),))
        with pytest.raises(InjectedFault):
            plan.apply("s", {"seed": 0}, 1)
        corrupt = FaultPlan(faults=(FaultSpec(kind="corrupt"),)).apply(
            "s", {"seed": 0}, 1
        )
        assert isinstance(corrupt, CorruptRecord)
        assert not isinstance(corrupt, RunRecord)

    def test_plan_travels_with_tasks_not_env(self, monkeypatch):
        # the env hook is read in the parent at call time; workers never
        # consult their (stale, forked) environment.  An explicit plan
        # must win over the variable outright.
        monkeypatch.setenv(
            "REPRO_FAULTS", '[{"kind": "raise", "times": null}]'
        )
        records = run_matrix(
            "chaos_probe", GRID, workers=2, strict=False,
            faults=FaultPlan(),  # explicit empty plan: no faults
        )
        assert all(r.ok for r in records)


# ----------------------------------------------------------------------
# retry/failure semantics, serial path
# ----------------------------------------------------------------------
class TestSerialFaults:
    def test_retry_recovers_transient_fault(self):
        plan = FaultPlan(faults=(FaultSpec(kind="raise", times=2),))
        reference = run_matrix("chaos_probe", GRID, workers=1)
        records = run_matrix(
            "chaos_probe", GRID, workers=1, max_retries=2, faults=plan
        )
        assert result_bytes(records) == result_bytes(reference)
        assert [r.attempts for r in records] == [3, 3, 3, 3]

    def test_strict_raises_original_exception(self):
        plan = FaultPlan(faults=(FaultSpec(kind="raise", times=None),))
        with pytest.raises(InjectedFault):
            run_matrix("chaos_probe", GRID, workers=1, faults=plan)

    def test_default_no_retry_is_seed_behaviour(self):
        plan = FaultPlan(faults=(FaultSpec(kind="raise", times=1),))
        with pytest.raises(InjectedFault):
            run_matrix("chaos_probe", GRID, workers=1, faults=plan)

    def test_terminal_failure_record(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", match={"seed": 2}, times=None),
        ))
        records = run_matrix(
            "chaos_probe", GRID, workers=1, max_retries=1,
            strict=False, faults=plan,
        )
        assert [r.ok for r in records] == [True, True, False, True]
        failure = records[2].result
        assert isinstance(failure, RunFailure)
        assert failure.failure_kind == "error"
        assert failure.error == "InjectedFault"
        assert failure.attempts == 2
        assert "InjectedFault" in failure.traceback

    def test_corrupt_record_rejected(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="corrupt", match={"seed": 0}, times=None),
        ))
        records = run_matrix(
            "chaos_probe", GRID, workers=1, strict=False, faults=plan
        )
        failure = records[0].result
        assert isinstance(failure, RunFailure)
        assert failure.failure_kind == "invalid"
        assert all(r.ok for r in records[1:])

    def test_failures_are_never_cached(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", match={"seed": 1}, times=None),
        ))
        cache = tmp_path / "memo"
        first = run_matrix(
            "chaos_probe", GRID, workers=1, cache_dir=cache,
            strict=False, faults=plan,
        )
        assert not first[1].ok
        # the failed cell re-runs (fault-free now) instead of replaying
        second = run_matrix(
            "chaos_probe", GRID, workers=1, cache_dir=cache
        )
        assert all(r.ok for r in second)
        assert [r.cached for r in second] == [True, False, True, True]

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            run_matrix("chaos_probe", GRID, max_retries=-1)
        with pytest.raises(ValueError, match="run_timeout"):
            run_matrix("chaos_probe", GRID, run_timeout=0.0)


# ----------------------------------------------------------------------
# the pool under chaos: crashes, hangs, timeouts, repair
# ----------------------------------------------------------------------
class TestPoolChaos:
    def test_acceptance_crash_and_hang_plan(self):
        # the ISSUE acceptance plan: ~20% worker crashes plus hangs on
        # the first attempt; the sweep must complete the full grid via
        # retries with surviving records byte-identical to fault-free.
        shutdown_warm_pool()
        grid = {"seed": tuple(range(10))}
        reference = run_matrix("chaos_probe", grid, workers=2)
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(kind="exit", rate=0.2, times=1),
            FaultSpec(kind="hang", rate=0.2, times=1, seconds=30.0),
        ))
        before = warm_pool_stats()
        records = run_matrix(
            "chaos_probe", grid, workers=2, max_retries=3,
            run_timeout=5.0, strict=False, faults=plan,
        )
        after = warm_pool_stats()
        assert all(r.ok for r in records)  # zero terminal failures
        assert result_bytes(records) == result_bytes(reference)
        # the plan actually fired: retries happened and workers died
        assert any(r.attempts > 1 for r in records)
        assert after["repaired"] > before["repaired"]
        # the reference run's pool served the chaos run too: repaired
        # in place, never discarded and recreated
        assert after["created"] == before["created"]
        assert after["reused"] == before["reused"] + 1

    def test_worker_crash_is_terminal_after_retries(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="exit", match={"seed": 1}, times=None),
        ))
        records = run_matrix(
            "chaos_probe", GRID, workers=2, max_retries=1,
            strict=False, faults=plan,
        )
        failure = records[1].result
        assert isinstance(failure, RunFailure)
        assert failure.failure_kind == "crash"
        assert failure.attempts == 2
        assert all(r.ok for i, r in enumerate(records) if i != 1)

    def test_hung_run_reaped_by_timeout(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="hang", match={"seed": 0}, times=None,
                      seconds=60.0),
        ))
        started = time.monotonic()
        records = run_matrix(
            "chaos_probe", GRID, workers=2, run_timeout=1.0,
            strict=False, faults=plan,
        )
        assert time.monotonic() - started < 30.0  # reaped, not 60s
        failure = records[0].result
        assert isinstance(failure, RunFailure)
        assert failure.failure_kind == "timeout"
        assert all(r.ok for r in records[1:])

    def test_run_timeout_forces_pool_for_single_worker(self):
        # an in-process run cannot preempt itself: with a timeout set,
        # even workers=1 must execute through killable workers
        plan = FaultPlan(faults=(
            FaultSpec(kind="hang", match={"seed": 2}, times=1,
                      seconds=60.0),
        ))
        records = run_matrix(
            "chaos_probe", GRID, workers=1, run_timeout=1.0,
            max_retries=1, strict=False, faults=plan,
        )
        assert all(r.ok for r in records)
        assert records[2].attempts == 2
        assert records[2].worker_pid != os.getpid()

    def test_corrupt_response_rejected_by_pool(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="corrupt", match={"seed": 3}, times=1),
        ))
        reference = run_matrix("chaos_probe", GRID, workers=2)
        records = run_matrix(
            "chaos_probe", GRID, workers=2, max_retries=1,
            strict=False, faults=plan,
        )
        assert all(r.ok for r in records)
        assert records[3].attempts == 2
        assert result_bytes(records) == result_bytes(reference)

    def test_strict_pool_raises_original_exception(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", match={"seed": 1}, times=None),
        ))
        with pytest.raises(InjectedFault):
            run_matrix("chaos_probe", GRID, workers=2, faults=plan)
        # the pool survives the strict abort for the next sweep
        records = run_matrix("chaos_probe", GRID, workers=2)
        assert all(r.ok for r in records)

    def test_strict_crash_raises_sweep_run_error(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="exit", match={"seed": 0}, times=None),
        ))
        with pytest.raises(SweepRunError, match="crash"):
            run_matrix("chaos_probe", GRID, workers=2, faults=plan)


# ----------------------------------------------------------------------
# partial results through ResultSet / Experiment
# ----------------------------------------------------------------------
class TestBothExecutorsRunOneCellLoop:
    """In-process cells and pool workers share the attempt loop's rules:
    the retry delay, and filing a finished cell outside the attempt."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_filing_error_propagates_after_one_run(self, tmp_path, workers):
        cache = tmp_path / "memo"
        events, filed = [], []

        def progress(record):
            filed.append(record.params["seed"])
            raise ValueError("progress callback fails")

        with pytest.raises(ValueError, match="progress callback fails"):
            run_matrix(
                "chaos_probe", GRID, workers=workers, cache_dir=cache,
                max_retries=2, progress=progress, observer=events.append,
            )
        (cell,) = filed  # GRID's index i runs seed i
        dispatched = [e for e in events if e["event"] == "dispatched"]
        assert [e["attempt"] for e in dispatched if e["i"] == cell] == [1]
        assert not [e for e in events if e["event"] == "retry"]
        (manifest_path,) = cache.glob("*.manifest.jsonl")
        entries = read_jsonl(manifest_path)[1:]
        assert [e for e in entries if e["i"] == cell] == [
            {"i": cell, "status": "ok"}
        ]
        assert all(e["status"] == "ok" for e in entries)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retries_wait_the_same_jittered_delay(self, workers):
        from repro.harness.pool import _jitter

        base, cap = 0.05, 2.0  # the sweep's retry backoff

        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", match={"seed": 1}, times=1),
            FaultSpec(kind="raise", match={"seed": 2}, times=None),
        ))
        events = []
        records = run_matrix(
            "chaos_probe", GRID, workers=workers, max_retries=2,
            strict=False, faults=plan, observer=events.append,
        )
        assert [r.ok for r in records] == [True, True, False, True]
        retries = sorted(
            (e["i"], e["attempt"], e["kind"], e["delay"])
            for e in events if e["event"] == "retry"
        )
        assert retries == [
            (i, attempt, "error", round(
                min(base * 2 ** (attempt - 1), cap)
                * _jitter(i, attempt), 6,
            ))
            for i, attempt in [(1, 1), (2, 1), (2, 2)]
        ]


def _partial_resultset() -> ResultSet:
    """Four chaos_probe cells with seed=2 failed terminally."""
    plan = FaultPlan(faults=(
        FaultSpec(kind="raise", match={"seed": 2}, times=None),
    ))
    return ResultSet(
        run_matrix(
            "chaos_probe", GRID, workers=1, strict=False, faults=plan
        )
    )


class TestPartialResults:
    def test_ok_failures_coverage(self):
        rs = _partial_resultset()
        assert len(rs) == 4 and rs.has_failures
        assert len(rs.ok()) == 3 and len(rs.failures()) == 1
        assert rs.coverage() == pytest.approx(0.75)
        assert "1 failed" in repr(rs)
        # failure metrics are queryable on the failures() set
        assert len(rs.failures().filter(failure_kind="error")) == 1

    def test_status_column_only_when_failures_present(self):
        rs = _partial_resultset()
        headers, rows = rs.to_rows()
        assert headers == ["seed", "status", "value", "doubled"]
        assert [row[1] for row in rows] == [
            "ok", "ok", "failed:error", "ok",
        ]
        assert rows[2][2] == ""  # failed cell's metrics are blank
        # a fully successful set renders byte-identically to before
        ok_headers, ok_rows = rs.ok().to_rows()
        assert ok_headers == ["seed", "value", "doubled"]
        assert all(len(row) == 3 for row in ok_rows)
        assert "status" in rs.table() and "status" not in rs.ok().table()

    def test_metric_names_come_from_ok_records(self):
        rs = _partial_resultset()
        assert rs.metric_names == ["value", "doubled"]
        # a pure-failure set exposes the failure schema instead
        assert "failure_kind" in rs.failures().metric_names

    def test_aggregate_skips_failures_and_reports_them(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", match={"seed": 2}, times=None),
        ))
        records = run_matrix(
            "chaos_probe", {"scale": (2.0, 4.0)}, seeds=(0, 1, 2),
            workers=1, strict=False, faults=plan,
        )
        agg = ResultSet(records).aggregate("value", over="seed")
        by_scale = {r.params["scale"]: r.result for r in agg}
        assert by_scale[2.0]["runs"] == 2 and by_scale[2.0]["failed"] == 1
        assert by_scale[4.0]["runs"] == 2 and by_scale[4.0]["failed"] == 1
        # the mean folds only the surviving seeds (0 and 1)
        expected = sum(
            random.Random(s).random() * 2.0 for s in (0, 1)
        ) / 2
        assert by_scale[2.0]["value_mean"] == pytest.approx(expected)

    def test_aggregate_without_failures_has_no_failed_column(self):
        records = run_matrix("chaos_probe", GRID, workers=1)
        agg = ResultSet(records).aggregate("value", over="seed")
        assert "failed" not in agg[0].result.metrics()

    def test_to_json_reports_failures(self):
        rs = _partial_resultset()
        payload = json.loads(rs.to_json())
        assert "metrics" in payload[0] and "failure" not in payload[0]
        assert "failure" in payload[2] and "metrics" not in payload[2]
        assert payload[2]["failure"]["kind"] == "error"
        assert payload[2]["failure"]["error"] == "InjectedFault"
        assert payload[2]["failure"]["attempts"] == 1

    def test_experiment_on_failure_raise_keep_retry(self, monkeypatch):
        plan_json = json.dumps(
            [{"kind": "raise", "match": {"seed": 1}, "times": 2}]
        )
        monkeypatch.setenv("REPRO_FAULTS", plan_json)
        exp = Experiment("chaos_probe").sweep(seed=(0, 1))
        with pytest.raises(InjectedFault):
            exp.run()  # default on_failure="raise"
        rs = exp.run(on_failure="keep")  # no retries: cell 1 fails
        assert [r.ok for r in rs] == [True, False]
        rs = exp.run(on_failure="retry")  # default 2 retries: recovers
        assert [r.ok for r in rs] == [True, True]
        assert rs[1].attempts == 3
        with pytest.raises(ValueError, match="on_failure"):
            exp.run(on_failure="ignore")

    def test_experiment_builder_validation(self):
        exp = Experiment("chaos_probe")
        with pytest.raises(ValueError):
            exp.retries(-1)
        with pytest.raises(ValueError):
            exp.timeout(0)
        assert exp.retries(2)._max_retries == 2
        assert exp.timeout(1.5)._run_timeout == 1.5
        assert exp.timeout(None)._run_timeout is None


# ----------------------------------------------------------------------
# cache quarantine
# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_pickle_entry_quarantined(self, tmp_path, monkeypatch):
        from repro.harness import runner as runner_mod

        cache = tmp_path / "memo"
        run_matrix("chaos_probe", GRID, workers=1, cache_dir=cache)
        victim = next(cache.glob("chaos_probe-*.pkl"))
        victim.write_bytes(b"\x80garbage-not-a-pickle")
        monkeypatch.setattr(runner_mod, "_QUARANTINE_WARNED", False)
        with pytest.warns(CorruptCacheWarning):
            records = run_matrix(
                "chaos_probe", GRID, workers=1, cache_dir=cache
            )
        assert all(r.ok for r in records)
        assert sum(1 for r in records if not r.cached) == 1  # recomputed
        corpses = list(cache.glob("*.pkl.corrupt"))
        assert len(corpses) == 1
        assert corpses[0].read_bytes() == b"\x80garbage-not-a-pickle"
        # the recompute repopulated the slot; a third sweep is all-cached
        third = run_matrix("chaos_probe", GRID, workers=1, cache_dir=cache)
        assert all(r.cached for r in third)

    def test_pickle_foreign_object_quarantined(self, tmp_path, monkeypatch):
        from repro.harness import runner as runner_mod

        cache = tmp_path / "memo"
        run_matrix("chaos_probe", GRID, workers=1, cache_dir=cache)
        victim = next(cache.glob("chaos_probe-*.pkl"))
        victim.write_bytes(pickle.dumps({"not": "a RunRecord"}))
        monkeypatch.setattr(runner_mod, "_QUARANTINE_WARNED", False)
        with pytest.warns(CorruptCacheWarning):
            records = run_matrix(
                "chaos_probe", GRID, workers=1, cache_dir=cache
            )
        assert all(r.ok for r in records)
        assert list(cache.glob("*.pkl.corrupt"))

    def test_quarantine_warns_once_per_process(self, tmp_path, monkeypatch):
        import warnings as warnings_mod

        from repro.harness import runner as runner_mod

        cache = tmp_path / "memo"
        run_matrix("chaos_probe", GRID, workers=1, cache_dir=cache)
        for victim in cache.glob("chaos_probe-*.pkl"):
            victim.write_bytes(b"junk")
        monkeypatch.setattr(runner_mod, "_QUARANTINE_WARNED", False)
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            run_matrix("chaos_probe", GRID, workers=1, cache_dir=cache)
        ours = [w for w in caught if w.category is CorruptCacheWarning]
        assert len(ours) == 1  # four corrupt entries, one warning


# ----------------------------------------------------------------------
# manifest + resume
# ----------------------------------------------------------------------
class TestManifestResume:
    def test_partial_failure_then_resume_completes(self, tmp_path):
        cache = tmp_path / "memo"
        reference = run_matrix("chaos_probe", GRID, workers=1)
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", match={"seed": 2}, times=None),
        ))
        first = run_matrix(
            "chaos_probe", GRID, workers=1, cache_dir=cache,
            strict=False, faults=plan,
        )
        assert [r.ok for r in first] == [True, True, False, True]
        (manifest_path,) = cache.glob("*.manifest.jsonl")
        lines = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ]
        assert lines[0]["scenario"] == "chaos_probe"
        assert lines[0]["cells"] == 4
        statuses = {e["i"]: e["status"] for e in lines[1:]}
        assert statuses == {0: "ok", 1: "ok", 2: "failed", 3: "ok"}
        # resume: only the failed cell re-runs, the rest replay from memo
        resumed = run_matrix(
            "chaos_probe", GRID, workers=1, cache_dir=cache, resume=True
        )
        assert all(r.ok for r in resumed)
        assert [r.cached for r in resumed] == [True, True, False, True]
        assert result_bytes(resumed) == result_bytes(reference)

    def test_resume_grid_mismatch_is_an_error(self, tmp_path):
        cache = tmp_path / "memo"
        run_matrix("chaos_probe", GRID, workers=1, cache_dir=cache)
        with pytest.raises(ValueError, match="cannot resume"):
            run_matrix(
                "chaos_probe", {"seed": (0, 1)}, workers=1,
                cache_dir=cache, resume=True,
            )

    def test_resume_without_cache_is_an_error(self):
        with pytest.raises(ValueError, match="resume"):
            run_matrix("chaos_probe", GRID, resume=True)

    def test_resume_after_torn_tail_keeps_every_later_cell(self, tmp_path):
        # a SIGKILL mid-write leaves `{"i": 1, "sta` with no newline; the
        # resumed sweep's first entry must not be glued onto it
        path = tmp_path / "s.manifest.jsonl"
        first = SweepManifest(path, "s", "h", 4)
        first.record(0, "ok")
        first.close()
        with path.open("a") as fh:
            fh.write('{"i": 1, "sta')
        resumed = SweepManifest(path, "s", "h", 4, resume=True)
        resumed.record(2, "ok")
        resumed.record(3, "ok")
        resumed.close()
        again = SweepManifest(path, "s", "h", 4, resume=True)
        again.close()
        header, *cells = read_jsonl(path)
        assert header["cells"] == 4
        assert {e["i"]: e["status"] for e in cells} == {0: "ok", 2: "ok", 3: "ok"}

    def test_resume_skips_a_non_object_line_and_adds_no_newline(self, tmp_path):
        path = tmp_path / "s.manifest.jsonl"
        first = SweepManifest(path, "s", "h", 2)
        first.record(0, "ok")
        first.close()
        with path.open("a") as fh:
            fh.write("7\n")  # valid JSON, not an entry
        before = path.read_text()
        resumed = SweepManifest(path, "s", "h", 2, resume=True)
        assert read_jsonl(path)[1:] == [{"i": 0, "status": "ok"}]
        resumed.record(1, "ok")
        resumed.close()
        assert path.read_text() == before + '{"i": 1, "status": "ok"}\n'

    def test_keyboard_interrupt_mid_sweep_is_resumable(self, tmp_path):
        shutdown_warm_pool()
        cache = tmp_path / "memo"
        grid = {"seed": tuple(range(8))}
        reference = run_matrix("chaos_probe", grid, workers=2,
                               cache_dir=cache)
        for stale in cache.iterdir():  # fresh cache for the real test
            stale.unlink()
        seen = []

        def interrupt_after_three(record):
            seen.append(record)
            if len(seen) == 3:
                raise KeyboardInterrupt

        before = warm_pool_stats()
        with pytest.raises(KeyboardInterrupt):
            run_matrix(
                "chaos_probe", grid, workers=2, cache_dir=cache,
                progress=interrupt_after_three,
            )
        # the manifest journaled what completed before the interrupt
        (manifest_path,) = cache.glob("*.manifest.jsonl")
        entries = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ][1:]
        assert len(entries) >= 3
        assert all(e["status"] == "ok" for e in entries)
        # the pool survived the interrupt (repaired, not discarded)
        resumed = run_matrix(
            "chaos_probe", grid, workers=2, cache_dir=cache, resume=True
        )
        after = warm_pool_stats()
        assert after["created"] == before["created"]  # same pool, reused
        assert all(r.ok for r in resumed)
        assert sum(1 for r in resumed if r.cached) >= 3
        assert result_bytes(resumed) == result_bytes(reference)

    def test_sigterm_mid_sweep_is_resumable(self, tmp_path):
        # a real SIGTERM against a separate sweep process: the runner
        # converts it to a clean shutdown, the manifest survives, and a
        # --resume invocation completes only the remaining cells
        script = tmp_path / "sweep_script.py"
        script.write_text(SIGTERM_SCRIPT)
        cache = tmp_path / "memo"
        env = {**os.environ,
               "PYTHONPATH": str(Path("src").resolve()),
               "PYTHONUNBUFFERED": "1"}
        # its own session: the sweep's pool workers join its process
        # group, so one killpg below also reaches any that outlive it
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache), "first"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            # wait until the fast cells have been journaled
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                manifests = list(cache.glob("*.manifest.jsonl"))
                if manifests and len(
                    manifests[0].read_text().splitlines()
                ) >= 3:  # header + 2 fast cells
                    break
                time.sleep(0.1)
            else:
                pytest.fail("sweep never journaled its fast cells")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            # a worker still holding the stdout pipe would block a bare
            # communicate() forever: kill the whole group, then drain
            _kill_group(proc.pid)
            if proc.returncode is None:
                proc.communicate(timeout=30)
        assert "INTERRUPTED" in out, out
        (manifest_path,) = cache.glob("*.manifest.jsonl")
        statuses = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ][1:]
        done = {e["i"] for e in statuses if e["status"] == "ok"}
        assert {0, 1} <= done and len(done) < 4
        # second invocation: resume completes only the remaining cells
        out2 = subprocess.run(
            [sys.executable, str(script), str(cache), "resume"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=120, check=True,
        ).stdout
        payload = json.loads(out2.splitlines()[-1])
        assert payload["ok"] == 4
        assert payload["cached"] >= len(done)
        assert payload["values"] == sorted(
            random.Random(s).random() for s in range(4)
        )

    def test_sigkill_mid_sweep_leaves_valid_manifest_and_resumes(
            self, tmp_path):
        # SIGKILL gives the runner NO chance to clean up: whatever the
        # manifest holds is whatever was flushed+fsync'd per entry.  It
        # must still parse (torn final line at worst) and --resume must
        # complete the sweep with byte-identical values.
        script = tmp_path / "sweep_script.py"
        script.write_text(SIGTERM_SCRIPT)
        cache = tmp_path / "memo"
        env = {**os.environ,
               "PYTHONPATH": str(Path("src").resolve()),
               "PYTHONUNBUFFERED": "1"}
        # the first invocation's output is irrelevant and capturing it
        # would leave its workers, busy in a hung cell, holding the
        # pipe open.  Its own session: one killpg below reaches them
        proc = subprocess.Popen(
            [sys.executable, str(script), str(cache), "first"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                manifests = list(cache.glob("*.manifest.jsonl"))
                if manifests and len(
                    manifests[0].read_text().splitlines()
                ) >= 3:  # header + 2 fast cells journaled
                    break
                time.sleep(0.1)
            else:
                pytest.fail("sweep never journaled its fast cells")
            proc.kill()  # SIGKILL, not SIGTERM: no handler runs
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            _kill_group(proc.pid)
        assert proc.returncode == -signal.SIGKILL
        # every durable manifest line parses; the completed cells are ok
        (manifest_path,) = cache.glob("*.manifest.jsonl")
        lines = manifest_path.read_text().splitlines()
        entries = []
        for line in lines[1:]:
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                assert line is lines[-1]  # only the final line may tear
        done = {e["i"] for e in entries if e.get("status") == "ok"}
        assert {0, 1} <= done and len(done) < 4
        # resume completes only the remaining cells, byte-identically
        out = subprocess.run(
            [sys.executable, str(script), str(cache), "resume"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=120, check=True,
        ).stdout
        payload = json.loads(out.splitlines()[-1])
        assert payload["ok"] == 4
        assert payload["cached"] >= len(done)
        assert payload["values"] == sorted(
            random.Random(s).random() for s in range(4)
        )

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sigkilled_sweep_leaves_no_worker_behind(
            self, tmp_path, start_method):
        # a warm pool's idle workers wait in recv on their pipes; once
        # the parent is SIGKILLed that recv must read EOF, so every
        # worker exits on its own.  The sweep has its own session, so
        # an empty process group means no worker outlived its parent
        script = tmp_path / "orphan_script.py"
        script.write_text(ORPHAN_SCRIPT)
        env = {**os.environ, "PYTHONPATH": str(Path("src").resolve())}
        proc = subprocess.Popen(
            [sys.executable, str(script), start_method],
            env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            proc.kill()  # the parent only, not its group
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, (
                    f"{start_method}: sweep workers alive 10 s after "
                    "their parent was SIGKILLed"
                )
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
            _kill_group(proc.pid)
            proc.stdout.close()
            proc.wait(timeout=30)


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a test's own process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group has already exited


ORPHAN_SCRIPT = '''
import dataclasses, multiprocessing, sys, time
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.harness.runner import run_matrix

@dataclasses.dataclass
class R(ScenarioResult):
    value: float

@register("orphan_probe", grid={})
def orphan_probe(seed: int = 0) -> R:
    return R(value=float(seed))

if __name__ == "__main__":  # a spawned worker imports this module too
    multiprocessing.set_start_method(sys.argv[1])
    records = run_matrix("orphan_probe", {"seed": (0, 1, 2, 3)}, workers=2)
    assert all(r.ok for r in records)
    print("READY", flush=True)
    time.sleep(120)  # the warm pool's two workers wait idle meanwhile
'''


SIGTERM_SCRIPT = '''
import dataclasses, json, os, sys, time, random
from repro.harness.registry import register
from repro.harness.result import ScenarioResult
from repro.harness.runner import run_matrix

@dataclasses.dataclass
class R(ScenarioResult):
    value: float

@register("sigterm_probe", grid={})
def sigterm_probe(seed: int = 0) -> R:
    # the slow cells hang only in the first invocation (env flag, NOT a
    # parameter: the cache key must be identical across invocations)
    if os.environ.get("SIGTERM_PROBE_HANG") and seed >= 2:
        time.sleep(120.0)  # hangs until SIGTERM reaps the sweep
    return R(value=random.Random(seed).random())

cache, mode = sys.argv[1], sys.argv[2]
if mode == "first":
    os.environ["SIGTERM_PROBE_HANG"] = "1"  # before workers fork
try:
    records = run_matrix(
        "sigterm_probe", {"seed": (0, 1, 2, 3)},
        workers=2, cache_dir=cache, resume=(mode == "resume"),
    )
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(3)
print(json.dumps({
    "ok": sum(1 for r in records if r.ok),
    "cached": sum(1 for r in records if r.cached),
    "values": sorted(r.result.value for r in records),
}), flush=True)
'''


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------
class TestCli:
    def _run_cli(self, tmp_path, *extra, faults=None, monkeypatch=None):
        from repro.harness.cli import main

        if faults is not None:
            monkeypatch.setenv("REPRO_FAULTS", faults)
        argv = [
            "run", "chaos_probe", "--sweep", "seed=0,1,2,3",
            "--cache-dir", str(tmp_path / "memo"), "--quiet",
            *extra,
        ]
        return main(argv)

    def test_failure_footer_and_exit_code(self, tmp_path, capsys,
                                          monkeypatch):
        plan = json.dumps(
            [{"kind": "raise", "match": {"seed": 2}, "times": None}]
        )
        code = self._run_cli(
            tmp_path, faults=plan, monkeypatch=monkeypatch
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "1 of 4 runs failed terminally" in captured.err
        assert "coverage 75%" in captured.err
        assert "--resume" in captured.err
        assert "failed:error" in captured.out  # status column in table

    def test_resume_flag_completes_failed_cells(self, tmp_path, capsys,
                                                monkeypatch):
        plan = json.dumps(
            [{"kind": "raise", "match": {"seed": 2}, "times": None}]
        )
        assert self._run_cli(
            tmp_path, faults=plan, monkeypatch=monkeypatch
        ) == 1
        capsys.readouterr()
        monkeypatch.delenv("REPRO_FAULTS")
        code = self._run_cli(tmp_path, "--resume")
        captured = capsys.readouterr()
        assert code == 0
        assert "failed" not in captured.err
        assert "status" not in captured.out  # clean table again
        assert "3 cached" in captured.out

    def test_max_retries_flag_recovers(self, tmp_path, capsys, monkeypatch):
        plan = json.dumps([{"kind": "raise", "match": {"seed": 1}}])
        code = self._run_cli(
            tmp_path, "--max-retries", "2",
            faults=plan, monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "status" not in capsys.readouterr().out

    def test_strict_flag_restores_abort(self, tmp_path, monkeypatch):
        plan = json.dumps(
            [{"kind": "raise", "match": {"seed": 0}, "times": None}]
        )
        monkeypatch.setenv("REPRO_FAULTS", plan)
        from repro.harness.cli import main

        with pytest.raises(InjectedFault):
            main([
                "run", "chaos_probe", "--sweep", "seed=0,1",
                "--no-cache", "--quiet", "--strict",
            ])

    def test_resume_requires_cache(self, tmp_path, capsys):
        from repro.harness.cli import main

        code = main([
            "run", "chaos_probe", "--sweep", "seed=0",
            "--no-cache", "--resume", "--quiet",
        ])
        assert code == 2
        assert "--resume needs the memo cache" in capsys.readouterr().err

    def test_json_stdout_stays_pure_data_on_failure(self, tmp_path,
                                                    capsys, monkeypatch):
        plan = json.dumps(
            [{"kind": "raise", "match": {"seed": 3}, "times": None}]
        )
        code = self._run_cli(
            tmp_path, "--format", "json",
            faults=plan, monkeypatch=monkeypatch,
        )
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)  # parseable despite failures
        assert payload[3]["failure"]["kind"] == "error"
        assert "failed terminally" in captured.err


# ----------------------------------------------------------------------
# fault plumbing is free on the fault-free path (a count, not a timing)
# ----------------------------------------------------------------------
class TestFaultPlumbingIsFree:
    """Arming retries, ``strict=False`` and a run timeout on a sweep in
    which no fault fires enters exactly the frames of the plain sweep in
    the runner, the fault plane and the registry.

    Counted with ``sys.setprofile`` in the sweep's own process (the
    pool's parent when there are workers).  Measured: 46 = 46 frames at
    4 in-process cells and 78 = 78 at 8; 67 / 95 / 151 in the pool's
    parent at 4 / 8 / 16 cells, armed or not.  ``harness/pool.py`` runs
    at most one loop turn per reply (17.5 frames per cell) and fewer
    when two replies share a turn, so it is bounded, not equated.
    """

    FABRIC = ("harness/runner.py", "harness/faults.py", "harness/registry.py")
    POOL = "harness/pool.py"
    ARMED = dict(strict=False, max_retries=2)

    @staticmethod
    def _sweep(cells, workers, **fault_kwargs):
        return lambda: run_matrix(
            "af_assurance", {"protocol": ("qtpaf",)},
            base=dict(
                target_bps=4e6, n_cross=1, duration=0.5, warmup=0.1,
                bottleneck_bps=4e6,
            ),
            seeds=range(cells), workers=workers, cache_dir=None,
            **fault_kwargs,
        )

    @pytest.mark.parametrize("cells", [4, 8])
    def test_in_process_sweep_enters_the_same_frames(self, count_frames, cells):
        parts = self.FABRIC + (self.POOL,)
        plain = count_frames(parts, self._sweep(cells, 1))
        armed = count_frames(parts, self._sweep(cells, 1, **self.ARMED))
        assert armed == plain
        assert plain[-1] == 0  # in-process: the pool is never entered

    @pytest.mark.parametrize("cells", [4, 8, 16])
    def test_pool_parent_enters_the_same_frames(self, count_frames, cells):
        parts = self.FABRIC + (self.POOL,)
        self._sweep(2, 2)()  # pay the pool spawn outside the counts
        plain = count_frames(parts, self._sweep(cells, 2))
        armed = count_frames(
            parts, self._sweep(cells, 2, run_timeout=300.0, **self.ARMED)
        )
        assert armed[:-1] == plain[:-1]
        assert plain[-1] <= 20 * cells
        assert armed[-1] <= 20 * cells
