"""Tier-1 checks on the benchmark itself (see perf/README.md).

The smoke pass runs one reduced-size op per workload through the real
subprocess/trace machinery; the unit tests pin the arithmetic the
ledger and ``--compare`` rest on.  Nothing here asserts a speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf import run, trace

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# BENCHMARK.json <-> code
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in run.WORKLOADS if name not in run.UNGATED
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(trace.PER_LAYER_METRICS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + list(run.WORKLOADS))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["perf"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    env = {**os.environ, "REPRO_FAULTS": "not json: must never reach a workload"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8")), proc.stdout


def test_smoke_emits_every_declared_metric_with_its_unit(smoke):
    doc, stdout = smoke
    assert doc["stamp"]["scrubbed_env"] == ["REPRO_FAULTS"]
    assert set(doc["stamp"]) >= {"python", "nproc", "sweep_workers",
                                 "scratch_filesystem", "git_head"}
    printed = set(re.findall(r"^(\S+)  (\S+) = \S+ (\S+)$", stdout, re.M))
    for name in run.WORKLOADS:
        result = doc["workloads"][name]
        assert result["failed"] == 0 and result["attempted"] >= 2
        for metric in SPEC["end_to_end"]:
            (value,) = result["end_to_end"][metric["name"]]
            assert value > 0
            assert (name, metric["name"], metric["unit"]) in printed
        assert sorted(result["per_layer"]) == sorted(
            m["name"] for m in SPEC["per_layer"]
        )
        for metric in SPEC["per_layer"]:
            assert (name, metric["name"], metric["unit"]) in printed


def test_smoke_ledger_adds_up(smoke):
    doc, _ = smoke
    for name in ("af_dumbbell", "churn_1000", "hybrid_100k"):
        result = doc["workloads"][name]
        layers = result["per_layer"]
        (wall,) = result["end_to_end"]["wall_s"]
        selfs = sum(layers[f"{layer}.self_s"] for layer in trace.PROFILE_LAYERS)
        assert selfs == pytest.approx(wall, rel=1e-6)
        assert result["notes"]["phase_coverage"] > 0.95
        assert layers["sim.engine.events"] > 0 and layers["sim.link.tx_packets"] > 0
        assert layers["harness.pool.run_tasks_s"] == 0
    assert doc["workloads"]["hybrid_100k"]["per_layer"]["fluid.epochs"] > 0
    assert doc["workloads"]["churn_1000"]["per_layer"]["traffic.flows"] == 50

    cached = doc["workloads"]["sweep_cached"]["per_layer"]
    assert cached["harness.pool.run_tasks_s"] == 0
    assert cached["harness.runner.cache_misses"] == 0
    assert cached["harness.runner.cache_hits"] == 8
    dispatch = doc["workloads"]["sweep_dispatch"]["per_layer"]
    assert dispatch["harness.runner.cache_hits"] == 0
    assert dispatch["harness.runner.cells"] == 8
    assert dispatch["harness.runner.manifest_entries"] == 8
    assert dispatch["harness.runner.record_pickle_bytes"] > 0
    assert dispatch["sim.engine.events"] == 0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": "t"}


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),      # overlaps a: [1, 5] counted once
        _span("c", 7.0, 9.0, parent=0),
        _span("c.inner", 7.5, 8.0, parent=3),  # a grandchild is c's, not op's
        _span("late", 9.5, 12.0, parent=0),  # clipped to the parent's end
    ]
    selfs = trace.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0 - 0.5)
    assert selfs[3] == pytest.approx(1.5)
    assert selfs[4] == pytest.approx(0.5)
    assert trace.self_time_of(spans, "c") == pytest.approx(1.5)


def test_sibling_self_times_add_up_to_the_root():
    tracer = trace.Tracer()
    tracer.op = "t"
    with tracer.span("op"):
        with tracer.span("spec"):
            with tracer.span("expand"):
                pass
        with tracer.span("run"):
            pass
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 0]
    assert all(s["op"] == "t" for s in tracer.spans)
    root = tracer.spans[0]
    assert sum(trace.self_times(tracer.spans)) == pytest.approx(
        root["end"] - root["start"]
    )


def test_wrap_records_a_span_and_unwrap_restores():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.__dict__["work"]
    tracer = trace.Tracer()
    tracer.wrap(Layer, "work", "layer.work",
                on_result=lambda span, result: span.update(result=result))
    assert Layer().work(1) == 2
    tracer.unwrap_all()
    assert Layer.__dict__["work"] is original
    assert Layer().work(1) == 2
    (span,) = tracer.spans
    assert span["name"] == "layer.work" and span["result"] == 2


# ----------------------------------------------------------------------
# file -> layer map
# ----------------------------------------------------------------------
def test_every_source_file_has_a_layer():
    package = ROOT / "src" / "repro"
    files = sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py"))
    assert files
    unmapped = [f for f in files if trace.layer_of_file(f) is None]
    assert not unmapped, f"add these to perf/trace.py FILE_LAYERS: {unmapped}"
    assert {layer for _, layer in trace.FILE_LAYERS} <= set(trace.PROFILE_LAYERS)
    assert trace.layer_of_file("sim/engine.py") == "sim.engine"
    assert trace.layer_of_file("tcp/sender.py") == "tcp"
    assert trace.layer_of_file("newpackage/thing.py") is None


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "a, b, word",
    [
        ([1.00, 1.01, 0.99, 1.00], [1.02, 1.03, 1.01, 1.02], "ok"),
        ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], "regressed"),
        ([1.0, 1.4, 0.7, 1.1], [1.3, 1.0, 1.7, 1.4], "unresolved"),  # worse, noisy
        ([1.0, 1.4, 0.7, 1.1], [1.1, 0.8, 1.3, 1.0], "unresolved"),  # same, noisy
        ([1.0, 1.4, 0.7, 1.1], [0.5, 0.6, 0.4, 0.5], "ok"),  # every B beats every A
        ([1.0, 1.4, 0.7, 1.1], [2.5, 2.6, 2.4, 2.5], "regressed"),  # every B worse
        ([1.0], [1.05], "ok"),
        ([1.0], [1.2], "regressed"),
    ],
)
def test_verdicts(a, b, word):
    assert run.verdict(a, b, 0.10, "lower")[1] == word


def _doc(wall, failed=0, events=100):
    per_layer = {m["name"]: 0 for m in SPEC["per_layer"]}
    per_layer["sim.engine.events"] = events
    per_layer["harness.pool.wait_calls"] = events  # scheduling noise: not exact
    return {
        "workloads": {
            "af_dumbbell": {
                "end_to_end": {
                    "wall_s": wall, "cpu_s": [1.0], "setup_s": [1.0],
                    "peak_rss_mb": [40.0],
                },
                "per_layer": per_layer,
                "attempted": 10,
                "failed": failed,
            }
        }
    }


def _compare(tmp_path, capsys, doc_a, doc_b):
    paths = []
    for label, doc in (("a", doc_a), ("b", doc_b)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    code = run.compare(*paths)
    return code, capsys.readouterr().out


def test_compare_exit_codes_and_count_differences(tmp_path, capsys):
    steady = [1.0, 1.01, 0.99]
    code, out = _compare(tmp_path, capsys, _doc(steady), _doc(steady))
    assert code == 0 and "regressed" not in out and "count differs" not in out

    code, out = _compare(tmp_path, capsys, _doc(steady), _doc([1.5, 1.51, 1.49]))
    assert code == 1
    assert re.search(r"af_dumbbell\s+wall_s .* 1\.500 .* regressed", out)

    code, out = _compare(tmp_path, capsys, _doc(steady), _doc(steady, events=101))
    assert code == 0
    assert "count differs: sim.engine.events  A=100  B=101" in out
    assert "wait_calls" not in out

    code, out = _compare(tmp_path, capsys, _doc(steady), _doc(steady, failed=1))
    assert code == 1
    assert re.search(r"failed_share .* regressed", out)


def test_a_corrupted_pin_fails_the_op():
    pins = run.load_pins("af_dumbbell", 1)
    key, truth = next(iter(pins.items()))

    clean = run.Checker(pins)
    clean.record(key, truth)
    clean.record("no-such-pin", "anything")
    assert (clean.attempted, clean.unpinned, clean.failures) == (2, 1, [])

    corrupted = run.Checker({**pins, key: truth.replace("qtpaf", "tcp")})
    corrupted.record(key, truth)
    assert corrupted.failures == [f"{key}: differs from the pinned result"]

    drifting = run.Checker({})
    drifting.record("k", "first")
    drifting.record("k", "second")
    drifting.record("k", None, error="raised ValueError: boom")
    assert len(drifting.failures) == 2 and drifting.attempted == 3
