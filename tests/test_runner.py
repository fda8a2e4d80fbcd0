"""Tests for the scenario registry, sweep runner, cache and CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness.cli import main as cli_main
from repro.harness.registry import get_scenario, list_scenarios
from repro.harness.runner import (
    RunRecord,
    SweepCache,
    code_version,
    expand_grid,
    run_matrix,
)

#: A small AF-assurance configuration every runner test shares; long
#: enough to exercise the full pipeline, short enough to stay tier-1.
AF_BASE = dict(n_cross=1, duration=3.0, warmup=1.0, bottleneck_bps=2e6)
AF_GRID = {"protocol": ("tcp", "gtfrc"), "target_bps": (5e5, 1e6)}


class TestRegistry:
    def test_all_canonical_scenarios_registered(self):
        names = {spec.name for spec in list_scenarios()}
        assert {
            "af_assurance",
            "smoothness",
            "lossy_path",
            "friendliness",
            "receiver_load",
            "estimation_accuracy",
            "selfish_receiver",
            "reliability_modes",
            "parking_lot",
            "reverse_path_chain",
            "hetero_sla",
        } <= names

    def test_unknown_scenario_raises_with_candidates(self):
        with pytest.raises(KeyError, match="af_assurance"):
            get_scenario("definitely_not_a_scenario")

    def test_schema_derived_from_signature(self):
        spec = get_scenario("af_assurance")
        assert spec.params["protocol"] is str
        assert spec.params["target_bps"] is float
        assert spec.params["n_cross"] is int
        assert spec.params["assured_access_delay"] is float  # Optional[float]
        assert spec.defaults["duration"] == 60.0
        assert "target_bps" not in spec.defaults

    def test_bind_rejects_unknown_parameters(self):
        spec = get_scenario("af_assurance")
        with pytest.raises(ValueError, match="no_such_param"):
            spec.bind({"protocol": "tcp", "no_such_param": 1})

    def test_coerce_cli_strings(self):
        spec = get_scenario("lossy_path")
        assert spec.coerce("loss_rate", "0.05") == 0.05
        assert spec.coerce("bursty", "true") is True
        assert spec.coerce("bursty", "0") is False
        assert spec.coerce("n_hops", "3") == 3
        assert spec.coerce("protocol", "tfrc") == "tfrc"
        af = get_scenario("af_assurance")
        assert af.coerce("assured_access_delay", "none") is None  # Optional

    def test_coerce_none_is_only_special_for_optional_params(self):
        # "none" is a real value for the reliability-mode axis...
        rel = get_scenario("reliability_modes")
        assert rel.coerce("mode", "none") == "none"
        # ...and a parse error for a required numeric parameter
        af = get_scenario("af_assurance")
        with pytest.raises(ValueError):
            af.coerce("n_cross", "none")

    def test_coerce_int_accepts_scientific_but_rejects_fractions(self):
        af = get_scenario("af_assurance")
        assert af.coerce("n_cross", "1e1") == 10
        with pytest.raises(ValueError, match="as int"):
            af.coerce("n_cross", "2.7")

    def test_default_grid_is_registered(self):
        spec = get_scenario("af_assurance")
        assert spec.default_grid["protocol"] == ("tcp", "tfrc", "gtfrc", "qtpaf")

    def test_coerce_unknown_parameter_fails_fast(self):
        spec = get_scenario("af_assurance")
        with pytest.raises(ValueError, match="no parameter 'nope'"):
            spec.coerce("nope", "1")

    def test_coerce_optional_accepts_null_spellings_case_insensitively(self):
        spec = get_scenario("af_assurance")
        for text in ("none", "NONE", "null", "Null"):
            assert spec.coerce("assured_access_delay", text) is None
        # a non-null string for an Optional[float] still parses as float
        assert spec.coerce("assured_access_delay", "0.05") == 0.05

    def test_coerce_bad_values_fail_fast(self):
        spec = get_scenario("lossy_path")
        with pytest.raises(ValueError):
            spec.coerce("loss_rate", "not-a-number")
        with pytest.raises(ValueError, match="as bool"):
            spec.coerce("bursty", "maybe")
        with pytest.raises(ValueError):
            spec.coerce("n_hops", "3.5")

    def test_coerce_bool_spellings(self):
        spec = get_scenario("lossy_path")
        for text, expected in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("False", False), ("no", False), ("OFF", False),
        ):
            assert spec.coerce("bursty", text) is expected

    def test_bind_fills_nothing_and_keeps_extras_out(self):
        spec = get_scenario("af_assurance")
        params = {"protocol": "tcp", "target_bps": 1e6}
        bound = spec.bind(params)
        assert bound == params
        assert bound is not params  # a defensive copy

    def test_bind_reports_every_missing_required_param(self):
        spec = get_scenario("lossy_path")
        with pytest.raises(ValueError) as excinfo:
            spec.bind({})
        message = str(excinfo.value)
        assert "loss_rate" in message and "protocol" in message

    def test_bind_reports_every_unknown_param(self):
        spec = get_scenario("lossy_path")
        with pytest.raises(ValueError) as excinfo:
            spec.bind({"protocol": "tcp", "loss_rate": 0.01, "a": 1, "b": 2})
        message = str(excinfo.value)
        assert "'a'" in message and "'b'" in message

    def test_optional_params_detected_from_union_syntax(self):
        # Optional[float] on af_assurance; plain params are not optional
        spec = get_scenario("af_assurance")
        assert "assured_access_delay" in spec.optional
        assert "protocol" not in spec.optional
        # "none" stays a real value for a plain str parameter
        assert spec.coerce("protocol", "none") == "none"


class TestExpandGrid:
    def test_cross_product_in_insertion_order(self):
        points = expand_grid({"a": (1, 2), "b": ("x", "y")})
        assert points == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_empty_grid_is_single_point(self):
        assert expand_grid({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid({"a": ()})


class TestRunMatrix:
    def test_same_grid_twice_identical_records(self):
        first = run_matrix("af_assurance", AF_GRID, base=AF_BASE, seeds=(0, 1))
        second = run_matrix("af_assurance", AF_GRID, base=AF_BASE, seeds=(0, 1))
        assert len(first) == 8  # 2 protocols x 2 targets x 2 seeds
        assert first == second  # RunRecord equality ignores timing metadata

    def test_records_in_grid_order_with_seeds_fastest(self):
        records = run_matrix("af_assurance", AF_GRID, base=AF_BASE, seeds=(0, 1))
        combos = [
            (r.params["protocol"], r.params["target_bps"], r.seed) for r in records
        ]
        assert combos == [
            ("tcp", 5e5, 0), ("tcp", 5e5, 1),
            ("tcp", 1e6, 0), ("tcp", 1e6, 1),
            ("gtfrc", 5e5, 0), ("gtfrc", 5e5, 1),
            ("gtfrc", 1e6, 0), ("gtfrc", 1e6, 1),
        ]

    def test_two_workers_match_serial(self):
        serial = run_matrix("af_assurance", AF_GRID, base=AF_BASE, workers=1)
        parallel = run_matrix("af_assurance", AF_GRID, base=AF_BASE, workers=2)
        assert serial == parallel
        assert [r.params for r in serial] == [r.params for r in parallel]

    def test_invalid_parameter_fails_before_running(self):
        with pytest.raises(ValueError, match="bogus"):
            run_matrix("af_assurance", {"bogus": (1, 2)}, base=AF_BASE)

    def test_missing_required_parameter_fails_before_running(self):
        # a grid replaces the default grid, so dropping target_bps must
        # raise upfront, not TypeError inside a worker
        with pytest.raises(ValueError, match="target_bps"):
            run_matrix("af_assurance", {"protocol": ("tcp",)}, base=AF_BASE)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonsense_worker_count_fails_before_running(self, workers):
        with pytest.raises(ValueError, match=f"workers .* got {workers}$"):
            run_matrix("af_assurance", AF_GRID, base=AF_BASE, workers=workers)

    def test_seeds_conflicting_with_seed_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="already sweeps 'seed'"):
            run_matrix(
                "smoothness", {"protocol": ("tfrc",), "seed": (0, 1)}, seeds=(7,)
            )

    def test_one_shot_seed_iterable_fully_expanded(self):
        records = run_matrix(
            "selfish_receiver",
            {"mode": ("tfrc", "qtplight")},
            base=dict(lying=False, duration=2.0, warmup=0.5),
            seeds=iter([0, 1]),
        )
        assert len(records) == 4

    def test_default_grid_used_when_none_given(self):
        records = run_matrix(
            "selfish_receiver", base=dict(duration=2.0, warmup=0.5)
        )
        assert len(records) == 4  # mode x lying default grid
        assert {(r.params["mode"], r.params["lying"]) for r in records} == {
            ("tfrc", False), ("tfrc", True),
            ("qtplight", False), ("qtplight", True),
        }


class TestSweepCache:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache_dir = tmp_path / "memo"
        first = run_matrix(
            "af_assurance", AF_GRID, base=AF_BASE, cache_dir=cache_dir
        )
        assert all(not r.cached for r in first)
        assert len(list(cache_dir.glob("af_assurance-*.pkl"))) == 4
        second = run_matrix(
            "af_assurance", AF_GRID, base=AF_BASE, cache_dir=cache_dir
        )
        assert all(r.cached for r in second)
        assert second == first

    def test_partial_grid_reuses_overlapping_runs(self, tmp_path):
        cache_dir = tmp_path / "memo"
        run_matrix("af_assurance", AF_GRID, base=AF_BASE, cache_dir=cache_dir)
        wider = {"protocol": ("tcp", "gtfrc", "qtpaf"), "target_bps": (5e5, 1e6)}
        records = run_matrix(
            "af_assurance", wider, base=AF_BASE, cache_dir=cache_dir
        )
        by_proto = {}
        for r in records:
            by_proto.setdefault(r.params["protocol"], []).append(r.cached)
        assert all(by_proto["tcp"]) and all(by_proto["gtfrc"])
        assert not any(by_proto["qtpaf"])

    def test_key_depends_on_params_seed_and_code_version(self, tmp_path):
        cache = SweepCache(tmp_path)
        base = {"protocol": "tcp", "seed": 0}
        assert cache.key("af_assurance", base) == cache.key("af_assurance", base)
        assert cache.key("af_assurance", base) != cache.key("smoothness", base)
        assert cache.key("af_assurance", base) != cache.key(
            "af_assurance", {"protocol": "tcp", "seed": 1}
        )
        assert cache.key("af_assurance", base) != cache.key(
            "af_assurance", {"protocol": "tfrc", "seed": 0}
        )
        assert len(code_version()) == 16

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache_dir = tmp_path / "memo"
        run_matrix(
            "selfish_receiver",
            {"mode": ("tfrc",), "lying": (False,)},
            base=dict(duration=2.0, warmup=0.5),
            cache_dir=cache_dir,
        )
        for path in cache_dir.glob("*.pkl"):
            # a bogus pickle frame header raises OverflowError, not
            # UnpicklingError — load() must treat any garbage as a miss
            path.write_bytes(b"\x80\x05\x95\xff\xff\xff\xff\xff\xff\xff\xff")
        records = run_matrix(
            "selfish_receiver",
            {"mode": ("tfrc",), "lying": (False,)},
            base=dict(duration=2.0, warmup=0.5),
            cache_dir=cache_dir,
        )
        assert not records[0].cached


class TestCli:
    def test_list_names_scenarios(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "af_assurance" in out and "smoothness" in out

    def test_run_prints_table_and_summary(self, capsys, tmp_path):
        code = cli_main(
            [
                "run", "af_assurance",
                "--sweep", "protocol=tcp,gtfrc",
                "--set", "target_bps=1e6",
                "--set", "duration=3.0",
                "--set", "warmup=1.0",
                "--set", "n_cross=1",
                "--cache-dir", str(tmp_path / "memo"),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: af_assurance" in out
        assert "achieved_bps" in out
        assert "2 runs (2 computed, 0 cached)" in out
        # a second invocation is served entirely from the memo
        assert cli_main(
            [
                "run", "af_assurance",
                "--sweep", "protocol=tcp,gtfrc",
                "--set", "target_bps=1e6",
                "--set", "duration=3.0",
                "--set", "warmup=1.0",
                "--set", "n_cross=1",
                "--cache-dir", str(tmp_path / "memo"),
                "--quiet",
            ]
        ) == 0
        assert "(0 computed, 2 cached)" in capsys.readouterr().out

    def test_run_format_json_is_pure_data(self, capsys):
        import json

        code = cli_main(
            [
                "run", "negotiation",
                "--sweep", "pair=default/default,server/mobile",
                "--no-cache", "--format", "json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout parses as-is
        assert [entry["params"]["pair"] for entry in payload] == [
            "default/default", "server/mobile",
        ]
        assert all(entry["scenario"] == "negotiation" for entry in payload)
        # per-run progress moved to stderr for machine-readable formats
        assert "[" in captured.err

    def test_run_format_csv_is_pure_data(self, capsys):
        code = cli_main(
            [
                "run", "negotiation",
                "--sweep", "pair=default/default",
                "--no-cache", "--quiet", "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("pair,")
        assert len(lines) == 2
        assert lines[1].startswith("default/default,")

    def test_run_format_table_is_default_with_summary(self, capsys):
        assert cli_main(
            ["run", "negotiation", "--sweep", "pair=default/default",
             "--no-cache", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep: negotiation" in out
        assert "1 runs (1 computed, 0 cached)" in out

    def test_run_unknown_scenario_errors(self, capsys):
        assert cli_main(["run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_bad_sweep_spec_errors(self, capsys):
        assert cli_main(["run", "af_assurance", "--sweep", "protocol"]) == 2
        assert "--sweep needs" in capsys.readouterr().err

    def test_run_duplicate_sweep_axis_errors(self, capsys):
        code = cli_main(
            [
                "run", "af_assurance",
                "--sweep", "protocol=tcp",
                "--sweep", "protocol=gtfrc",
            ]
        )
        assert code == 2
        assert "given twice" in capsys.readouterr().err

    def test_run_missing_required_param_errors_cleanly(self, capsys):
        code = cli_main(
            ["run", "af_assurance", "--sweep", "protocol=tcp", "--quiet"]
        )
        assert code == 2
        assert "missing required parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env", [(["--workers", "-3"], ""), ([], "-3")])
    def test_run_negative_workers_errors_before_dispatch(
            self, capsys, monkeypatch, flag, env):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", env)
        code = cli_main(
            ["run", "af_assurance", "--sweep", "protocol=tcp",
             "--set", "target_bps=1e6", "--no-cache"] + flag
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: workers") and "-3" in captured.err
        assert captured.out == ""  # no cell ran, no progress line

    def test_bench_is_not_a_subcommand(self, capsys):
        # speed is measured by perf/run.py alone; the old entry point
        # must fail loudly, not fall through to the help text
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestRunRecord:
    def test_equality_ignores_timing_metadata(self):
        a = RunRecord("s", {"seed": 1}, result=3.0, elapsed=1.0, worker_pid=10)
        b = RunRecord("s", {"seed": 1}, result=3.0, elapsed=9.0, cached=True)
        assert a == b
        assert a.seed == 1
        assert RunRecord("s", {}, None).seed is None

class TestWarmPool:
    """The persistent worker pool reused across run_matrix calls (PR 4)."""

    SMALL = dict(n_cross=1, duration=2.0, warmup=0.5, bottleneck_bps=2e6)

    def test_second_call_reuses_the_pool(self):
        from repro.harness.runner import shutdown_warm_pool, warm_pool_stats

        shutdown_warm_pool()
        before = warm_pool_stats()
        grid = {"protocol": ("tcp", "gtfrc")}
        first = run_matrix("af_assurance", grid,
                           base={**self.SMALL, "target_bps": 1e6}, workers=2)
        second = run_matrix("af_assurance", grid,
                            base={**self.SMALL, "target_bps": 1e6}, workers=2)
        stats = warm_pool_stats()
        assert stats["created"] == before["created"] + 1
        assert stats["reused"] >= before["reused"] + 1
        assert first == second

    def test_warm_records_identical_to_cold_serial(self):
        import pickle

        from repro.harness.runner import shutdown_warm_pool

        grid = {"protocol": ("tcp", "gtfrc")}
        base = {**self.SMALL, "target_bps": 1e6}
        warm = run_matrix("af_assurance", grid, base=base, workers=2)
        shutdown_warm_pool()
        cold = run_matrix("af_assurance", grid, base=base, workers=1)
        assert warm == cold
        # byte-identical payloads, not just dataclass equality.  Fields
        # are pickled separately: a combined pickle also encodes object
        # *sharing* between params and result (an in-process record can
        # alias the same float object in both), which IPC neither can
        # nor should preserve.
        for w, c in zip(warm, cold):
            assert pickle.dumps(w.scenario) == pickle.dumps(c.scenario)
            assert pickle.dumps(w.params) == pickle.dumps(c.params)
            assert pickle.dumps(w.result) == pickle.dumps(c.result)

    def test_worker_count_change_retires_the_pool(self):
        from repro.harness.runner import shutdown_warm_pool, warm_pool_stats

        shutdown_warm_pool()
        grid = {"protocol": ("tcp", "gtfrc")}
        base = {**self.SMALL, "target_bps": 1e6}
        run_matrix("af_assurance", grid, base=base, workers=2)
        created = warm_pool_stats()["created"]
        run_matrix("af_assurance", grid, base=base, workers=3)
        assert warm_pool_stats()["created"] == created + 1

    def test_worker_error_keeps_the_pool_warm(self):
        # PR 7 regression guard: a crashing cell used to discard the
        # warm pool; now the pool survives a failed section and the
        # *next* sweep reuses it (repaired, not recreated).
        from repro.harness import runner as runner_mod
        from repro.harness.runner import warm_pool_stats

        runner_mod.shutdown_warm_pool()
        with pytest.raises(ValueError):
            run_matrix(
                "af_assurance",
                {"protocol": ("tcp", "nope-not-a-protocol")},
                base={**self.SMALL, "target_bps": 1e6},
                workers=2,
            )
        assert runner_mod._WARM_POOL is not None
        before = warm_pool_stats()
        records = run_matrix(
            "af_assurance",
            {"protocol": ("tcp", "qtpaf")},
            base={**self.SMALL, "target_bps": 1e6},
            workers=2,
        )
        after = warm_pool_stats()
        assert len(records) == 2
        assert after["created"] == before["created"]  # no new pool
        assert after["reused"] == before["reused"] + 1

    def test_shutdown_is_idempotent(self):
        from repro.harness.runner import shutdown_warm_pool

        shutdown_warm_pool()
        shutdown_warm_pool()

    def test_run_record_positional_pickle_roundtrip(self):
        import pickle

        record = RunRecord("s", {"seed": 3}, result={"x": 1.5},
                           elapsed=0.25, cached=False, worker_pid=77)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.elapsed == 0.25 and clone.worker_pid == 77


#: ``_execute_run`` promises to work "in spawned workers (where the
#: registry starts empty)".  Run as a script so the session's own start
#: method is untouched; spawn re-imports ``__main__``, hence the guard.
SPAWN_SCRIPT = """
import multiprocessing
import os

from repro.harness.runner import (
    run_matrix, shutdown_warm_pool, warm_pool_stats,
)


def sweep(workers):
    return run_matrix(
        "lossy_path", {"protocol": ("tcp", "tfrc")},
        base=dict(loss_rate=0.02, duration=1.0, warmup=0.2),
        seeds=range(2), workers=workers, cache_dir=None,
    )


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    serial, spawned = sweep(1), sweep(2)
    assert len(spawned) == 4
    assert [r.result for r in spawned] == [r.result for r in serial]
    pids = {r.worker_pid for r in spawned}
    assert len(pids) == 2 and os.getpid() not in pids, pids
    assert warm_pool_stats()["created"] == 1
    workers = multiprocessing.active_children()
    assert {w.pid for w in workers} == pids
    shutdown_warm_pool()
    assert not any(w.is_alive() for w in workers)
    print("spawn sweep ok")
"""


def test_spawn_start_method_matches_serial_and_shuts_down(tmp_path):
    script = tmp_path / "spawn_sweep.py"
    script.write_text(SPAWN_SCRIPT)
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, str(script)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "spawn sweep ok"
    assert done.stderr == ""


class TestWarmPoolRegistryKey:
    def test_scenario_registered_after_fork_retires_the_pool(self):
        # forked workers carry the registry of their fork moment; a
        # scenario registered afterwards must force a re-fork, not a
        # KeyError inside a stale worker
        from repro.harness import runner as runner_mod
        from repro.harness.registry import _REGISTRY, register
        from repro.harness.result import MappingResult

        runner_mod.shutdown_warm_pool()
        base = dict(n_cross=1, duration=2.0, warmup=0.5,
                    bottleneck_bps=2e6, target_bps=1e6)
        run_matrix("af_assurance", {"protocol": ("tcp", "gtfrc")},
                   base=base, workers=2)
        created = runner_mod.warm_pool_stats()["created"]

        @register("wp_dynamic_probe", grid={})
        def wp_dynamic_probe(seed: int = 0) -> MappingResult:
            return MappingResult({"seed": seed, "value": seed * 2})

        try:
            records = run_matrix("wp_dynamic_probe", {"seed": (0, 1)},
                                 workers=2)
            assert [r.result["value"] for r in records] == [0, 2]
            assert runner_mod.warm_pool_stats()["created"] == created + 1
        finally:
            _REGISTRY.pop("wp_dynamic_probe", None)
            runner_mod.shutdown_warm_pool()


class TestWarmPoolConcurrency:
    def test_concurrent_mismatched_sweeps_both_complete(self):
        # thread B's different worker count must not terminate the pool
        # thread A is mid-sweep on; B gets a transient pool instead
        import threading

        from repro.harness import runner as runner_mod

        runner_mod.shutdown_warm_pool()
        base = dict(n_cross=1, duration=2.0, warmup=0.5,
                    bottleneck_bps=2e6, target_bps=1e6)
        grid = {"protocol": ("tcp", "gtfrc"), "seed": (0, 1)}
        results = {}
        errors = []

        def sweep(tag, workers):
            try:
                results[tag] = run_matrix("af_assurance", grid, base=base,
                                          workers=workers)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append((tag, exc))

        threads = [
            threading.Thread(target=sweep, args=("a", 2)),
            threading.Thread(target=sweep, args=("b", 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        serial = run_matrix("af_assurance", grid, base=base, workers=1)
        assert results["a"] == serial
        assert results["b"] == serial
        runner_mod.shutdown_warm_pool()
