"""Tests for the unified experiment API (repro.api)."""

import json

import pytest

from repro.api import Experiment, MappingResult, ResultSet, ScenarioResult
from repro.harness.registry import get_scenario
from repro.harness.runner import RunRecord, run_matrix

#: A fast negotiation sweep shared by ResultSet tests (no simulation).
NEG_PAIRS = ("default/default", "server/mobile")

#: A small but real simulation config for end-to-end Experiment tests.
LOSSY_BASE = dict(loss_rate=0.02, duration=2.0, warmup=0.5)


@pytest.fixture(scope="module")
def lossy():
    """2 protocols x 2 seeds of a short lossy_path sweep."""
    return (
        Experiment("lossy_path")
        .sweep(protocol=("tcp", "tfrc"))
        .configure(**LOSSY_BASE)
        .seeds((0, 1))
        .run()
    )


class TestExperimentBuilder:
    def test_unknown_scenario_fails_at_construction(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            Experiment("definitely_not_registered")

    def test_unknown_sweep_axis_fails_at_call_site(self):
        with pytest.raises(ValueError, match="bogus"):
            Experiment("lossy_path").sweep(bogus=(1, 2))

    def test_unknown_configure_key_fails_at_call_site(self):
        with pytest.raises(ValueError, match="nope"):
            Experiment("lossy_path").configure(nope=3)

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Experiment("lossy_path").sweep(loss_rate=())

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            Experiment("lossy_path").seeds(())

    def test_negative_workers_rejected_and_zero_means_one_per_cpu(self):
        with pytest.raises(ValueError, match="workers .* got -3"):
            Experiment("lossy_path").workers(-3)
        for per_cpu in (None, 0):
            described = Experiment("lossy_path").workers(per_cpu).describe()
            assert described["workers"] is None

    def test_from_spec(self):
        spec = get_scenario("negotiation")
        experiment = Experiment.from_spec(spec)
        assert experiment.spec is spec

    def test_from_spec_rejects_non_registered_specs(self):
        # run() resolves by registry name, so a hand-built/modified
        # spec must fail here, not validate against a phantom schema
        import dataclasses

        fake = dataclasses.replace(get_scenario("negotiation"))
        with pytest.raises(ValueError, match="not the registered"):
            Experiment.from_spec(fake)

    def test_default_grid_used_when_no_sweep_given(self):
        experiment = Experiment("negotiation")
        assert experiment.grid == dict(get_scenario("negotiation").default_grid)

    def test_sweep_replaces_default_grid(self):
        experiment = Experiment("negotiation").sweep(pair=NEG_PAIRS)
        assert experiment.grid == {"pair": NEG_PAIRS}

    def test_builder_methods_chain(self):
        experiment = Experiment("lossy_path")
        assert (
            experiment.sweep(protocol=("tcp",))
            .configure(duration=1.0)
            .seeds(1)
            .workers(1)
            .cache(None)
            is experiment
        )

    def test_run_matches_run_matrix(self):
        grid = {"pair": NEG_PAIRS}
        via_api = Experiment("negotiation").sweep(grid).run()
        via_runner = run_matrix("negotiation", grid)
        assert via_api.records == via_runner

    def test_repr_names_scenario_and_grid(self):
        text = repr(Experiment("negotiation").sweep(pair=NEG_PAIRS))
        assert "negotiation" in text and "pair" in text


class TestResultSetBasics:
    def test_len_iter_and_grid_order(self, lossy):
        assert len(lossy) == 4
        combos = [(r.params["protocol"], r.params["seed"]) for r in lossy]
        assert combos == [("tcp", 0), ("tcp", 1), ("tfrc", 0), ("tfrc", 1)]

    def test_results_follow_contract(self, lossy):
        assert all(isinstance(r, ScenarioResult) for r in lossy.results)

    def test_param_and_metric_names(self, lossy):
        assert lossy.param_names == [
            "loss_rate", "duration", "warmup", "protocol", "seed",
        ]
        # protocol/loss_rate metrics are shadowed by the parameters
        assert lossy.metric_names == ["observed_loss_rate", "goodput_bps"]

    def test_one_and_value(self, lossy):
        r = lossy.one(protocol="tcp", seed=0)
        assert r.protocol == "tcp"
        assert lossy.value("goodput_bps", protocol="tcp", seed=0) == r.goodput_bps

    def test_one_requires_unique_match(self, lossy):
        with pytest.raises(KeyError, match="matched 2"):
            lossy.one(protocol="tcp")

    def test_value_unknown_metric_errors(self, lossy):
        with pytest.raises(KeyError, match="unknown metric"):
            lossy.value("nope", protocol="tcp", seed=0)

    def test_unknown_metric_error_names_the_contract(self, lossy):
        from repro.api import UnknownMetricError

        with pytest.raises(UnknownMetricError) as exc:
            lossy.value("nope", protocol="tcp", seed=0)
        # a typo fails with the declared contract in hand, not with a
        # bare KeyError: the metric, the scenario, the known names
        assert exc.value.metric == "nope"
        assert exc.value.scenario == "lossy_path"
        assert "goodput_bps" in exc.value.known
        message = str(exc.value)
        assert "declared contract" in message
        assert "'lossy_path'" in message
        assert not message.startswith('"')  # no KeyError repr-quoting

    def test_aggregate_unknown_metric_raises_contract_error(self, lossy):
        from repro.api import UnknownMetricError

        with pytest.raises(UnknownMetricError, match="declared contract"):
            lossy.aggregate("nope", over="seed")

    def test_filter_by_param_and_predicate(self, lossy):
        assert len(lossy.filter(protocol="tfrc")) == 2
        assert len(lossy.filter(lambda r: r.params["seed"] == 1)) == 2
        assert len(lossy.filter(lambda r: False)) == 0

    def test_filter_falls_back_to_metrics(self, lossy):
        goodput = lossy.value("goodput_bps", protocol="tcp", seed=0)
        assert len(lossy.filter(goodput_bps=goodput)) >= 1

    def test_filter_unknown_key_errors(self, lossy):
        with pytest.raises(KeyError, match="neither parameters nor metrics"):
            lossy.filter(not_a_thing=1)

    def test_filter_key_missing_from_some_records_is_a_non_match(self):
        # heterogeneous sets (or aggregated rows) may carry a key on
        # only part of the records: those lacking it are excluded, not
        # an error
        records = [
            RunRecord("h", {"x": 1, "extra": 7}, MappingResult({"a": 1.0})),
            RunRecord("h", {"x": 2}, MappingResult({"a": 2.0, "b": 3.0})),
        ]
        rs = ResultSet(records)
        assert [r.params["x"] for r in rs.filter(extra=7)] == [1]
        assert [r.params["x"] for r in rs.filter(b=3.0)] == [2]
        with pytest.raises(KeyError):
            rs.filter(nowhere=1)

    def test_group_by_preserves_grid_order(self, lossy):
        groups = lossy.group_by("protocol")
        assert list(groups) == ["tcp", "tfrc"]
        assert all(len(g) == 2 for g in groups.values())

    def test_group_by_multiple_keys(self, lossy):
        groups = lossy.group_by("protocol", "seed")
        assert list(groups)[0] == ("tcp", 0)
        assert all(len(g) == 1 for g in groups.values())


class TestAggregate:
    def test_mean_matches_hand_arithmetic(self, lossy):
        agg = lossy.aggregate("goodput_bps", over="seed", stats=("mean",))
        for proto in ("tcp", "tfrc"):
            values = [
                lossy.value("goodput_bps", protocol=proto, seed=s) for s in (0, 1)
            ]
            assert agg.value("goodput_bps_mean", protocol=proto) == (
                sum(values) / len(values)
            )

    def test_seed_axis_folded_away(self, lossy):
        agg = lossy.aggregate("goodput_bps", over="seed")
        assert len(agg) == 2
        assert "seed" not in agg.param_names
        assert agg.value("runs", protocol="tcp") == 2

    def test_percentile_and_minmax_stats(self, lossy):
        agg = lossy.aggregate(
            "goodput_bps", over="seed", stats=("min", "max", "p50")
        )
        lo = agg.value("goodput_bps_min", protocol="tcp")
        hi = agg.value("goodput_bps_max", protocol="tcp")
        mid = agg.value("goodput_bps_p50", protocol="tcp")
        assert lo <= mid <= hi

    def test_default_metrics_are_all_numeric(self, lossy):
        agg = lossy.aggregate(over="seed", stats=("mean",))
        summary = agg.one(protocol="tcp").metrics()
        assert "observed_loss_rate_mean" in summary
        assert "goodput_bps_mean" in summary

    def test_unknown_stat_rejected(self, lossy):
        with pytest.raises(ValueError, match="unknown statistic"):
            lossy.aggregate("goodput_bps", stats=("median",))

    def test_missing_metric_rejected(self, lossy):
        with pytest.raises(KeyError, match="nope"):
            lossy.aggregate("nope", over="seed")


class TestExports:
    def test_to_rows_headers_params_then_metrics(self, lossy):
        headers, rows = lossy.to_rows()
        assert headers == lossy.param_names + lossy.metric_names
        assert len(rows) == 4
        assert rows[0][headers.index("protocol")] == "tcp"

    def test_table_contains_title_and_values(self, lossy):
        text = lossy.table(title="my sweep")
        assert text.splitlines()[0] == "my sweep"
        assert "goodput_bps" in text

    def test_to_csv_round_trips(self, lossy, tmp_path):
        path = tmp_path / "out.csv"
        text = lossy.to_csv(path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0].startswith("loss_rate,")
        assert len(lines) == 5  # header + 4 runs

    def test_to_json_structure(self, lossy, tmp_path):
        path = tmp_path / "out.json"
        payload = json.loads(lossy.to_json(path))
        assert len(payload) == 4
        assert payload[0]["scenario"] == "lossy_path"
        assert payload[0]["params"]["protocol"] == "tcp"
        assert "goodput_bps" in payload[0]["metrics"]
        assert json.loads(path.read_text()) == payload


class TestScenarioResultContract:
    def test_every_registered_scenario_declares_a_result_type(self):
        from repro.harness.registry import list_scenarios

        for spec in list_scenarios():
            assert spec.result_type is not None, spec.name
            assert issubclass(spec.result_type, ScenarioResult), spec.name
            assert spec.result_type.metric_names(), spec.name

    def test_computed_metrics_are_appended(self):
        from repro.harness.experiments.af_assurance import AfResult

        names = AfResult.metric_names()
        assert names[-1] == "ratio"
        r = AfResult("qtpaf", 2e6, 2e6, 0.0, 0.0, 1e6)
        assert r.metrics()["ratio"] == 1.0

    def test_payload_excluded_from_metrics(self):
        from repro.harness.experiments.convergence import ConvergenceResult

        r = ConvergenceResult("tfrc", 1e6, 0.0, 0.0, 0.0, series_bps=[1.0])
        assert "series_bps" not in r.metrics()
        assert r.payload() == {"series_bps": [1.0]}

    def test_registering_without_contract_raises(self):
        from repro.harness import registry

        def raw_scenario(x: int = 0) -> dict:
            return {"x": x}

        with pytest.raises(TypeError, match="raw_scenario_for_contract_test"):
            registry.register("raw_scenario_for_contract_test")(raw_scenario)
        assert "raw_scenario_for_contract_test" not in registry._REGISTRY

    def test_mapping_result_splits_metrics_from_payload(self):
        records = [
            RunRecord("m", {"x": 1}, MappingResult({"a": 1.0, "series": [1, 2]})),
            RunRecord("m", {"x": 2}, MappingResult({"a": 2.0, "series": [3]})),
        ]
        rs = ResultSet(records)
        assert rs.metric_names == ["a"]
        result = rs.one(x=1)
        assert result.a == 1.0
        assert result["a"] == 1.0
        assert result.payload() == {"series": [1, 2]}

    def test_resultset_rejects_a_raw_result_by_scenario(self):
        records = [
            RunRecord("typed", {"x": 1}, MappingResult({"a": 1.0})),
            RunRecord("raw_dict_probe", {"x": 2}, {"a": 2.0}),
        ]
        with pytest.raises(TypeError, match="'raw_dict_probe' returned a dict"):
            ResultSet(records)
