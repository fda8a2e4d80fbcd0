"""The campaign layer: spec round-trips, durable layout, checkpoint
journal, resume semantics, graceful degradation, verify/quarantine and
the CLI subcommands.

The kill-the-orchestrator chaos harness (real process death at every
checkpoint, byte-identity of resumed artifacts) lives in
``tests/test_campaign_chaos.py``; this file covers the same contracts
in-process where a fault can be injected without dying.
"""

import dataclasses
import json
import random

import pytest

from repro.api import Experiment
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignJournal,
    CampaignSpec,
    CampaignStore,
    JobSpec,
    load_spec,
    resume_campaign,
    verify_campaign,
    write_report,
)
from repro.harness.cli import main as cli_main
from repro.harness.faults import FaultPlan, FaultSpec, InjectedFault
from repro.harness.registry import register
from repro.harness.result import ScenarioResult


@dataclasses.dataclass
class ProbeResult(ScenarioResult):
    value: float


@register("campaign_probe", grid={"seed": (0, 1)})
def campaign_probe(seed: int = 0, scale: float = 1.0,
                   fail_on: int = -1) -> ProbeResult:
    """Deterministic probe for campaign tests."""
    if seed == fail_on:
        raise ValueError(f"injected cell failure for seed {seed}")
    return ProbeResult(value=round(random.Random(seed).random() * scale, 6))


def two_job_campaign() -> Campaign:
    return (
        Campaign("unit")
        .add("a", Experiment("campaign_probe").sweep(seed=(0, 1)).configure(scale=2.0))
        .add("b", Experiment("campaign_probe").sweep(seed=(0, 1, 2)))
    )


def tracked_bytes(directory):
    """``{relpath: bytes}`` of every manifest-tracked artifact."""
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    return {
        rel: (directory / rel).read_bytes()
        for rel in manifest["artifacts"]
    }


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
class TestSpec:
    def test_jobspec_round_trips_an_experiment(self):
        exp = (
            Experiment("campaign_probe")
            .sweep(seed=(0, 1, 2))
            .configure(scale=3.0)
            .workers(2)
            .retries(1)
            .timeout(30.0)
        )
        job = JobSpec.from_experiment("j", exp)
        assert job.experiment().describe() == exp.describe()

    def test_campaign_spec_json_round_trip(self):
        spec = two_job_campaign().spec
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(two_job_campaign().spec.to_json()))
        assert load_spec(path) == two_job_campaign().spec

    def test_spec_hash_ignores_execution_tuning(self):
        base = Experiment("campaign_probe").sweep(seed=(0, 1))
        tuned = (
            Experiment("campaign_probe").sweep(seed=(0, 1))
            .workers(8).retries(3).timeout(5.0)
        )
        h1 = Campaign("c").add("j", base).spec.spec_hash()
        h2 = Campaign("c").add("j", tuned).spec.spec_hash()
        assert h1 == h2

    def test_spec_hash_tracks_identity(self):
        h1 = Campaign("c").add(
            "j", Experiment("campaign_probe").sweep(seed=(0, 1))
        ).spec.spec_hash()
        h2 = Campaign("c").add(
            "j", Experiment("campaign_probe").sweep(seed=(0, 1, 2))
        ).spec.spec_hash()
        assert h1 != h2

    def test_write_spec_preserves_param_order(self, tmp_path):
        """campaign.json must keep grid/base key order: resume rebuilds
        jobs from it, and sweep param order decides CSV/table column
        order — alphabetizing it would break resume byte-identity."""
        job = JobSpec(
            name="j", scenario="campaign_probe",
            grid=(("seed", (0, 1)),),
            base=(("scale", 2.0), ("fail_on", -1)),  # not alphabetical
        )
        spec = CampaignSpec(name="order", jobs=(job,))
        store = CampaignStore(tmp_path)
        store.write_spec(spec, {})
        assert store.read_spec() == spec

    def test_duplicate_job_names_rejected(self):
        campaign = Campaign("c").add("j", Experiment("campaign_probe"))
        with pytest.raises(CampaignError, match="duplicate"):
            campaign.add("j", Experiment("campaign_probe"))

    def test_unsafe_job_name_rejected(self):
        with pytest.raises(CampaignError, match="filesystem-safe"):
            JobSpec(name="../escape", scenario="campaign_probe")

    def test_on_failure_raise_rejected(self):
        with pytest.raises(CampaignError, match="on_failure"):
            JobSpec(name="j", scenario="campaign_probe", on_failure="raise")

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(CampaignError, match="unknown key"):
            JobSpec.from_json({"name": "j", "scenario": "s", "typo": 1})


# ----------------------------------------------------------------------
# durable layout + provenance
# ----------------------------------------------------------------------
class TestLayout:
    def test_run_produces_the_full_layout(self, tmp_path):
        directory = tmp_path / "camp"
        run = two_job_campaign().run(directory)
        assert run.ok
        for rel in (
            "campaign.json", "journal.jsonl", "MANIFEST.json", "report.md",
            "campaign.spans.jsonl",
            "scenarios/a/results.csv", "scenarios/a/results.json",
            "scenarios/a/table.txt", "scenarios/a/spans.jsonl",
            "scenarios/b/table.txt",
        ):
            assert (directory / rel).exists(), rel

    def test_spec_document_carries_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        monkeypatch.setenv("REPRO_FAULTS", '{"faults": []}')
        directory = tmp_path / "camp"
        spec = two_job_campaign().spec
        two_job_campaign().run(directory)
        doc = json.loads((directory / "campaign.json").read_text())
        assert doc["name"] == "unit"
        assert doc["spec_hash"] == spec.spec_hash()
        prov = doc["provenance"]
        from repro.harness.runner import code_version

        assert prov["code_version"] == code_version()
        assert prov["env"]["REPRO_TEST_KNOB"] == "42"
        # fault plans are chaos tooling, never provenance: a chaos run's
        # campaign.json must be byte-identical to a fault-free run's
        assert "REPRO_FAULTS" not in prov["env"]

    def test_journal_records_every_checkpoint(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        state = CampaignJournal.read(directory / "journal.jsonl")
        assert state["header"]["campaign"] == "unit"
        assert state["scenarios"]["a"]["status"] == "ok"
        assert state["scenarios"]["b"]["status"] == "ok"
        assert state["scenarios"]["b"]["cells"] == 3
        assert state["report_done"]
        assert state["max_seq"] == 3  # two scenarios + the report

    def test_manifest_tracks_only_deterministic_artifacts(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        tracked = set(tracked_bytes(directory))
        assert "campaign.json" in tracked
        assert "report.md" in tracked
        # journals and span files are execution metadata: timestamps and
        # completion order make them run-specific, so they are not held
        # to the byte-identity contract
        assert not any("journal" in rel or "spans" in rel for rel in tracked)


# ----------------------------------------------------------------------
# resume semantics
# ----------------------------------------------------------------------
class TestResume:
    def test_interrupted_campaign_resumes_byte_identically(self, tmp_path):
        reference = tmp_path / "ref"
        two_job_campaign().run(reference)
        # die at checkpoint 2 (job b): job a is durable, b never lands
        interrupted = tmp_path / "chaos"
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", scenario="campaign.checkpoint",
                      match={"seq": 2}),
        ))
        with pytest.raises(InjectedFault):
            two_job_campaign().run(interrupted, faults=plan)
        state = CampaignJournal.read(interrupted / "journal.jsonl")
        assert set(state["scenarios"]) == {"a"}
        run = two_job_campaign().run(interrupted, resume=True)
        assert run.ok
        assert run.outcomes["a"].restored
        assert not run.outcomes["b"].restored
        assert tracked_bytes(interrupted) == tracked_bytes(reference)

    def test_corrupt_checkpoint_fault_leaves_loadable_journal(self, tmp_path):
        directory = tmp_path / "camp"
        plan = FaultPlan(faults=(
            FaultSpec(kind="corrupt", scenario="campaign.checkpoint",
                      match={"seq": 1}),
        ))
        run = two_job_campaign().run(directory, faults=plan)
        assert run.ok
        # the torn garbage line is on disk, terminated by the next entry...
        raw = (directory / "journal.jsonl").read_text()
        assert '{"seq": \n' in raw
        # ...and the loader skips it
        state = CampaignJournal.read(directory / "journal.jsonl")
        assert state["scenarios"]["a"]["status"] == "ok"
        resumed = two_job_campaign().run(directory, resume=True)
        assert all(o.restored for o in resumed.outcomes.values())

    def test_resume_after_a_killed_writer_keeps_the_next_checkpoint(self, tmp_path):
        # the torn tail was left by an earlier process, so no in-process
        # flag knows about it
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path, "c", "hash", "v1")
        journal.record_scenario("a", "ok")
        journal.close()
        with path.open("a") as fh:
            fh.write('{"seq": ')
        journal = CampaignJournal(path, "c", "hash", "v1", resume=True)
        journal.record_scenario("b", "ok")
        journal.close()
        state = CampaignJournal.read(path)
        assert set(state["scenarios"]) == {"a", "b"}
        assert state["max_seq"] == 2

    def test_resume_reruns_job_with_missing_artifact(self, tmp_path):
        directory = tmp_path / "camp"
        reference = two_job_campaign().run(directory)
        assert reference.ok
        before = tracked_bytes(directory)
        (directory / "scenarios" / "a" / "table.txt").unlink()
        run = two_job_campaign().run(directory, resume=True)
        assert not run.outcomes["a"].restored  # self-healed by re-run
        assert run.outcomes["b"].restored
        assert tracked_bytes(directory) == before

    def test_resume_needs_an_existing_campaign(self, tmp_path):
        with pytest.raises(CampaignError, match="nothing to resume"):
            two_job_campaign().run(tmp_path / "void", resume=True)

    def test_changed_spec_refuses_the_directory(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        other = Campaign("unit").add(
            "a", Experiment("campaign_probe").sweep(seed=(5, 6))
        )
        with pytest.raises(CampaignError, match="spec hash"):
            other.run(directory, resume=True)

    def test_changed_code_refuses_to_resume(self, tmp_path, monkeypatch):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        from repro.campaign import runner as campaign_runner

        monkeypatch.setattr(
            campaign_runner, "code_version", lambda: "deadbeefdeadbeef"
        )
        with pytest.raises(CampaignError, match="code changed"):
            two_job_campaign().run(directory, resume=True)

    def test_resume_campaign_rebuilds_from_spec_file(self, tmp_path):
        directory = tmp_path / "camp"
        plan = FaultPlan(faults=(
            FaultSpec(kind="raise", scenario="campaign.checkpoint",
                      match={"seq": 1}),
        ))
        with pytest.raises(InjectedFault):
            two_job_campaign().run(directory, faults=plan)
        run = resume_campaign(directory)
        assert run.ok and set(run.outcomes) == {"a", "b"}

    def test_custom_table_blocks_spec_file_resume(self, tmp_path):
        directory = tmp_path / "camp"
        campaign = Campaign("custom").add(
            "a",
            Experiment("campaign_probe").sweep(seed=(0,)),
            table=lambda rs: "custom table\n",
        )
        campaign.run(directory)
        assert (directory / "scenarios" / "a" / "table.txt").read_text() == (
            "custom table\n"
        )
        with pytest.raises(CampaignError, match="custom table"):
            resume_campaign(directory)
        # ...but the defining script itself can resume
        resumed = campaign.run(directory, resume=True)
        assert resumed.outcomes["a"].restored


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def degraded_campaign(self) -> Campaign:
        campaign = Campaign("degraded")
        campaign.add("good", Experiment("campaign_probe").sweep(seed=(0, 1)))
        # a job whose scenario does not exist fails terminally at run time
        campaign._jobs.append(JobSpec(name="doomed", scenario="no_such_scenario"))
        campaign.add("tail", Experiment("campaign_probe").sweep(seed=(2,)))
        return campaign

    def test_terminal_job_failure_does_not_stop_the_campaign(self, tmp_path):
        directory = tmp_path / "camp"
        run = self.degraded_campaign().run(directory)
        assert not run.ok
        assert run.outcomes["good"].status == "ok"
        assert run.outcomes["doomed"].status == "failed"
        assert run.outcomes["tail"].status == "ok"  # ran despite the failure
        failure = json.loads(
            (directory / "scenarios" / "doomed" / "failure.json").read_text()
        )
        assert failure["error"] == "KeyError"
        assert "no_such_scenario" in failure["message"]

    def test_report_carries_an_explicit_coverage_section(self, tmp_path):
        directory = tmp_path / "camp"
        self.degraded_campaign().run(directory)
        report = (directory / "report.md").read_text()
        assert "Coverage is INCOMPLETE" in report
        assert "| doomed | no_such_scenario | failed |" in report
        assert "**FAILED**" in report
        # surviving jobs still render their tables
        assert "### good" in report and "value" in report

    def test_failed_cells_degrade_to_partial_coverage(self, tmp_path):
        directory = tmp_path / "camp"
        campaign = Campaign("partial").add(
            "p",
            Experiment("campaign_probe")
            .sweep(seed=(0, 1, 2))
            .configure(fail_on=1),
        )
        run = campaign.run(directory)
        outcome = run.outcomes["p"]
        assert outcome.status == "partial"
        assert (outcome.cells, outcome.ok_cells) == (3, 2)
        report = (directory / "report.md").read_text()
        assert "Partial coverage: 2 of 3 cells completed." in report
        assert "| p | campaign_probe | partial | 3 | 67% |" in report

    def test_resume_retries_failed_jobs_but_keeps_partial(self, tmp_path):
        directory = tmp_path / "camp"
        self.degraded_campaign().run(directory)
        run = self.degraded_campaign().run(directory, resume=True)
        # ok jobs restore from the checkpoint; the failed one re-runs
        assert run.outcomes["good"].restored
        assert run.outcomes["tail"].restored
        assert not run.outcomes["doomed"].restored
        assert run.outcomes["doomed"].status == "failed"


# ----------------------------------------------------------------------
# verify + quarantine
# ----------------------------------------------------------------------
class TestVerify:
    def test_intact_campaign_verifies_clean(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        report = verify_campaign(directory)
        assert report.ok and report.checked >= 8

    def test_corrupt_artifact_is_quarantined_not_deleted(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        victim = directory / "scenarios" / "a" / "results.csv"
        original = victim.read_bytes()
        victim.write_bytes(original + b"bitrot")
        report = verify_campaign(directory)
        assert not report.ok
        (finding,) = report.findings
        assert finding.problem == "corrupt"
        assert finding.artifact == "scenarios/a/results.csv"
        quarantined = directory / finding.quarantined_to
        assert quarantined.read_bytes() == original + b"bitrot"  # evidence kept
        assert not victim.exists()  # moved aside, so resume regenerates it

    def test_quarantine_then_resume_restores_byte_identity(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        before = tracked_bytes(directory)
        victim = directory / "scenarios" / "b" / "table.txt"
        victim.write_text("evil")
        assert not verify_campaign(directory).ok
        two_job_campaign().run(directory, resume=True)
        assert verify_campaign(directory).ok
        assert tracked_bytes(directory) == before

    def test_missing_artifact_is_reported(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        (directory / "report.md").unlink()
        report = verify_campaign(directory)
        (finding,) = report.findings
        assert finding.problem == "missing" and finding.artifact == "report.md"

    def test_no_quarantine_mode_reports_without_moving(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        victim = directory / "scenarios" / "a" / "table.txt"
        victim.write_text("evil")
        report = verify_campaign(directory, quarantine=False)
        assert not report.ok
        assert victim.exists() and not (directory / "quarantine").exists()

    def test_verify_rejects_a_non_campaign_directory(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign"):
            verify_campaign(tmp_path)


# ----------------------------------------------------------------------
# report + observability
# ----------------------------------------------------------------------
class TestReportAndObs:
    def test_write_report_regenerates_identical_text(self, tmp_path):
        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        on_disk = (directory / "report.md").read_text()
        assert write_report(directory) == on_disk
        assert (directory / "report.md").read_text() == on_disk

    def test_campaign_spans_cover_jobs_and_report(self, tmp_path):
        from repro.ioutil import read_jsonl

        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        events = read_jsonl(str(directory / "campaign.spans.jsonl"))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign"
        assert kinds.count("report") == 1
        job_events = [e for e in events if e["event"] == "job"]
        assert {e["name"] for e in job_events} == {"a", "b"}
        # per-job sweep spans landed in the scenario directories
        sweep = read_jsonl(str(directory / "scenarios" / "a" / "spans.jsonl"))
        assert sweep[0]["event"] == "sweep"
        assert sum(1 for e in sweep if e["event"] == "done") == 2

    def test_resume_appends_spans_instead_of_truncating(self, tmp_path):
        from repro.ioutil import read_jsonl

        directory = tmp_path / "camp"
        two_job_campaign().run(directory)
        two_job_campaign().run(directory, resume=True)
        events = read_jsonl(str(directory / "campaign.spans.jsonl"))
        headers = [e for e in events if e["event"] == "campaign"]
        assert len(headers) == 2
        assert headers[0]["resumed"] is False
        assert headers[1]["resumed"] is True

    def test_job_outcomes_land_on_the_metrics_registry(self, tmp_path):
        from repro.obs.metrics import (
            disable_metrics,
            enable_metrics,
            registry,
            reset_metrics,
        )

        enable_metrics()
        try:
            reset_metrics()
            two_job_campaign().run(tmp_path / "camp")
            snapshot = registry().to_json()
            series = snapshot["repro_campaign_jobs_total"]["series"]
            assert any(
                entry["labels"].get("status") == "ok" and entry["value"] == 2.0
                for entry in series
            )
        finally:
            disable_metrics()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCampaignCli:
    def write_spec(self, tmp_path, **overrides):
        payload = {
            "name": "cli",
            "jobs": [
                {"name": "a", "scenario": "campaign_probe",
                 "grid": {"seed": [0, 1]}, "base": {"scale": 2.0}},
                {"name": "b", "scenario": "campaign_probe",
                 "grid": {"seed": [0]}},
            ],
            **overrides,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_run_verify_report_round_trip(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        directory = tmp_path / "camp"
        assert cli_main(
            ["campaign", "run", str(spec), "--dir", str(directory)]
        ) == 0
        out = capsys.readouterr().out
        assert "a=ok" in out and "b=ok" in out
        assert cli_main(["campaign", "verify", str(directory)]) == 0
        assert "intact" in capsys.readouterr().out
        assert cli_main(["campaign", "report", str(directory)]) == 0
        assert "# Campaign report: cli" in capsys.readouterr().out

    def test_verify_exits_one_and_quarantines_corruption(self, tmp_path,
                                                         capsys):
        spec = self.write_spec(tmp_path)
        directory = tmp_path / "camp"
        cli_main(["campaign", "run", str(spec), "--dir", str(directory)])
        capsys.readouterr()
        (directory / "scenarios" / "a" / "table.txt").write_text("evil")
        assert cli_main(["campaign", "verify", str(directory)]) == 1
        out = capsys.readouterr().out
        assert "corrupt: scenarios/a/table.txt" in out
        assert "quarantined" in out
        assert (directory / "quarantine" / "scenarios" / "a"
                / "table.txt").exists()

    def test_resume_completes_and_exits_zero(self, tmp_path, capsys,
                                             monkeypatch):
        spec = self.write_spec(tmp_path)
        directory = tmp_path / "camp"
        monkeypatch.setenv("REPRO_FAULTS", json.dumps([
            {"kind": "raise", "scenario": "campaign.checkpoint",
             "match": {"seq": 2}},
        ]))
        with pytest.raises(InjectedFault):
            cli_main(["campaign", "run", str(spec), "--dir", str(directory)])
        monkeypatch.delenv("REPRO_FAULTS")
        capsys.readouterr()
        assert cli_main(["campaign", "resume", str(directory)]) == 0
        assert "b=ok" in capsys.readouterr().out

    def test_degraded_campaign_exits_one_with_footer(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, jobs=[
            {"name": "good", "scenario": "campaign_probe",
             "grid": {"seed": [0]}},
            {"name": "doomed", "scenario": "no_such_scenario"},
        ])
        directory = tmp_path / "camp"
        assert cli_main(
            ["campaign", "run", str(spec), "--dir", str(directory)]
        ) == 1
        captured = capsys.readouterr()
        assert "doomed=failed" in captured.out
        assert "1 of 2 jobs degraded" in captured.err
        assert "campaign resume" in captured.err

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text("{not json")
        assert cli_main(
            ["campaign", "run", str(bad_spec), "--dir", str(tmp_path / "d")]
        ) == 2
        assert "unparseable" in capsys.readouterr().err
        assert cli_main(
            ["campaign", "resume", str(tmp_path / "nowhere")]
        ) == 2
        assert "cannot read" in capsys.readouterr().err
