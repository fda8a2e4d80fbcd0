"""The durable on-disk side of a campaign.

Layout under the campaign directory::

    campaign.json           spec + provenance (code_version, spec hash,
                            env snapshot) — written once, atomically
    journal.jsonl           the checkpoint ledger: header line, then one
                            fsync'd entry per completed scenario/report
    MANIFEST.json           integrity manifest: sha256 + size of every
                            tracked artifact, updated atomically
    report.md               the generated cross-scenario report
    campaign.spans.jsonl    campaign-level span events (execution
                            metadata — untracked, append across resumes)
    scenarios/<job>/        per-job artifacts: results.csv, results.json,
                            table.txt (or failure.json for a terminally
                            failed job)
    cache/                  the sweep memo cache + per-scenario sweep
                            manifests and span journals (execution
                            metadata — untracked)
    quarantine/             where ``verify`` moves corrupt artifacts

Two integrity planes, deliberately separate:

* the **journal** records *progress* — which checkpoints completed —
  and is what resume consults.  It is append-only JSONL, fsync'd per
  entry, torn-final-line tolerant, and pinned to the campaign identity
  (spec hash + code version) so a changed definition or edited code
  refuses to resume instead of silently mixing results.
* the **manifest** records *content* — the hash of every derived
  artifact at the moment it was atomically published.  ``verify``
  re-hashes and quarantines (never deletes) anything that diverged.

Every tracked artifact is written via :mod:`repro.ioutil`, so a crash
at any instant leaves either the old or the new complete file; the
journal entry for a scenario is only appended *after* its artifacts and
manifest entries are durable, which is what makes kill-anywhere resume
sound.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.ioutil import atomic_write_json, open_append, read_jsonl
from repro.campaign.spec import CampaignError, CampaignSpec

__all__ = [
    "CampaignJournal",
    "CampaignStore",
    "VerifyFinding",
    "VerifyReport",
]

#: File names of the fixed layout (module-level so tests and docs can
#: reference them without a store instance).
SPEC_FILE = "campaign.json"
JOURNAL_FILE = "journal.jsonl"
MANIFEST_FILE = "MANIFEST.json"
REPORT_FILE = "report.md"
SPANS_FILE = "campaign.spans.jsonl"
SCENARIOS_DIR = "scenarios"
CACHE_DIR = "cache"
QUARANTINE_DIR = "quarantine"


def _sha256_file(path: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class VerifyFinding:
    """One artifact that failed verification."""

    artifact: str  # manifest-relative path
    problem: str  # "missing" | "corrupt"
    expected: str  # recorded sha256
    actual: Optional[str] = None  # observed sha256 (None when missing)
    quarantined_to: Optional[str] = None  # dir-relative path when moved


@dataclass
class VerifyReport:
    """The outcome of ``campaign verify``."""

    directory: Path
    checked: int = 0
    findings: List[VerifyFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return f"verify: {self.checked} artifacts intact"
        lines = [
            f"verify: {len(self.findings)} of {self.checked} artifacts bad"
        ]
        for f in self.findings:
            where = f" -> quarantined to {f.quarantined_to}" if f.quarantined_to else ""
            lines.append(f"  {f.problem}: {f.artifact}{where}")
        return "\n".join(lines)


class CampaignStore:
    """Path arithmetic + artifact/manifest operations for one directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.directory / SPEC_FILE

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_FILE

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_FILE

    @property
    def report_path(self) -> Path:
        return self.directory / REPORT_FILE

    @property
    def spans_path(self) -> Path:
        return self.directory / SPANS_FILE

    @property
    def cache_dir(self) -> Path:
        return self.directory / CACHE_DIR

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIR

    def scenario_dir(self, job_name: str) -> Path:
        return self.directory / SCENARIOS_DIR / job_name

    # ------------------------------------------------------------------
    # spec + provenance
    # ------------------------------------------------------------------
    def write_spec(self, spec: CampaignSpec, provenance: Mapping[str, Any]) -> None:
        payload = dict(spec.to_json())
        payload["spec_hash"] = spec.spec_hash()
        payload["provenance"] = dict(provenance)
        self.directory.mkdir(parents=True, exist_ok=True)
        # sort_keys would alphabetize each job's grid/base dicts, and a
        # later resume (which rebuilds jobs from THIS file) would then
        # enumerate sweep params in a different order than the original
        # run — changing CSV/table column order and breaking the
        # byte-identity contract.  Spec order is part of the identity.
        atomic_write_json(self.spec_path, payload, sort_keys=False)

    def read_spec_document(self) -> Dict[str, Any]:
        try:
            payload = json.loads(self.spec_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CampaignError(
                f"no campaign at {self.directory}: cannot read "
                f"{SPEC_FILE} ({exc})"
            ) from None
        except ValueError as exc:
            raise CampaignError(
                f"corrupt {SPEC_FILE} in {self.directory}: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise CampaignError(f"corrupt {SPEC_FILE} in {self.directory}")
        return payload

    def read_spec(self) -> CampaignSpec:
        return CampaignSpec.from_json(self.read_spec_document())

    # ------------------------------------------------------------------
    # integrity manifest
    # ------------------------------------------------------------------
    def read_manifest(self) -> Dict[str, Dict[str, Any]]:
        """The tracked-artifact map (empty when absent/corrupt).

        A corrupt manifest is treated as empty rather than fatal: the
        campaign re-runs and re-records everything, which is the
        recovery path anyway.
        """
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        artifacts = payload.get("artifacts") if isinstance(payload, dict) else None
        return dict(artifacts) if isinstance(artifacts, dict) else {}

    def _write_manifest(self, artifacts: Mapping[str, Mapping[str, Any]]) -> None:
        atomic_write_json(self.manifest_path, {
            "manifest": 1,
            "artifacts": {rel: dict(info) for rel, info in sorted(artifacts.items())},
        })

    def record_artifacts(self, relpaths: List[str]) -> None:
        """Hash the given directory-relative files into the manifest."""
        artifacts = self.read_manifest()
        for rel in relpaths:
            path = self.directory / rel
            artifacts[rel] = {
                "sha256": _sha256_file(path),
                "bytes": path.stat().st_size,
            }
        self._write_manifest(artifacts)

    def artifacts_intact(self, prefix: str = "") -> bool:
        """True when every tracked artifact under ``prefix`` checks out.

        The cheap (re-hash, no side effects) form of :meth:`verify`,
        used by resume to decide whether a journal-complete scenario
        really still has its outputs.
        """
        for rel, info in self.read_manifest().items():
            if not rel.startswith(prefix):
                continue
            path = self.directory / rel
            try:
                if _sha256_file(path) != info.get("sha256"):
                    return False
            except OSError:
                return False
        return True

    def verify(self, *, quarantine: bool = True) -> VerifyReport:
        """Re-hash every tracked artifact; quarantine what diverged.

        A corrupt file is *moved* (never deleted) to
        ``quarantine/<artifact path>`` so the evidence survives for
        diagnosis; its manifest entry stays, so a subsequent resume
        sees the artifact missing and regenerates it.
        """
        report = VerifyReport(directory=self.directory)
        for rel, info in sorted(self.read_manifest().items()):
            report.checked += 1
            path = self.directory / rel
            expected = str(info.get("sha256", ""))
            try:
                actual = _sha256_file(path)
            except OSError:
                report.findings.append(VerifyFinding(
                    artifact=rel, problem="missing", expected=expected,
                ))
                continue
            if actual == expected:
                continue
            quarantined_to = None
            if quarantine:
                quarantined_to = self._quarantine(rel)
            report.findings.append(VerifyFinding(
                artifact=rel,
                problem="corrupt",
                expected=expected,
                actual=actual,
                quarantined_to=quarantined_to,
            ))
        return report

    def _quarantine(self, rel: str) -> Optional[str]:
        """Move one corrupt artifact aside; return its new relative path."""
        src = self.directory / rel
        dst = self.quarantine_dir / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        # never clobber earlier evidence: suffix on collision
        candidate, suffix = dst, 1
        while candidate.exists():
            candidate = dst.with_name(f"{dst.name}.{suffix}")
            suffix += 1
        try:
            src.replace(candidate)
        except OSError:
            return None
        return str(candidate.relative_to(self.directory))


class CampaignJournal:
    """The append-only, fsync'd checkpoint ledger of one campaign.

    Line 1 is a header pinning the campaign identity::

        {"journal": 1, "campaign": ..., "spec_hash": ..., "code_version": ...}

    then one entry per completed checkpoint::

        {"seq": N, "event": "scenario", "name": ..., "status":
         "ok"|"partial"|"failed", ...}
        {"seq": N, "event": "report"}

    Each entry is written, flushed and fsync'd before the runner moves
    on, so a SIGKILL between checkpoints loses nothing and a SIGKILL
    *during* one loses at most the in-flight line — which the loader
    skips as torn.  ``resume=True`` validates the existing header and
    appends; a mismatch (edited spec or code) raises instead of mixing
    incompatible results in one directory.
    """

    VERSION = 1

    def __init__(self, path: Union[str, Path], campaign: str, spec_hash: str,
                 code_version: str, *, resume: bool = False):
        self.path = Path(path)
        self.campaign = campaign
        self.spec_hash = spec_hash
        self.code_version = code_version
        #: last recorded entry per scenario name (name -> entry dict)
        self.scenarios: Dict[str, Dict[str, Any]] = {}
        self.report_done = False
        self.next_seq = 1
        self.resumed = False
        #: set only by write_garbage_line (fault injection in this
        #: process); a tail torn by an earlier process is open_append's job
        self._torn_tail = False
        if resume and self.path.exists():
            state = self.read(self.path)
            self._check_header(state["header"])
            self.scenarios = state["scenarios"]
            self.report_done = state["report_done"]
            self.next_seq = state["max_seq"] + 1
            self._fh = open_append(self.path)
            self.resumed = True
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
            self._write_line({
                "journal": self.VERSION,
                "campaign": campaign,
                "spec_hash": spec_hash,
                "code_version": code_version,
            })

    @staticmethod
    def read(path: Union[str, Path]) -> Dict[str, Any]:
        """Parse a journal file (torn-final-line tolerant, no locking).

        Returns ``{"header": dict, "scenarios": {name: last entry},
        "report_done": bool, "max_seq": int}``.
        """
        header: Dict[str, Any] = {}
        scenarios: Dict[str, Dict[str, Any]] = {}
        report_done = False
        max_seq = 0
        for entry in read_jsonl(path):
            if "journal" in entry and not header:
                header = entry
                continue
            if entry.get("event") == "scenario" and "name" in entry:
                scenarios[str(entry["name"])] = entry
            elif entry.get("event") == "report":
                report_done = True
            try:
                max_seq = max(max_seq, int(entry.get("seq", 0)))
            except (TypeError, ValueError):
                pass
        return {
            "header": header,
            "scenarios": scenarios,
            "report_done": report_done,
            "max_seq": max_seq,
        }

    def _check_header(self, header: Mapping[str, Any]) -> None:
        if not header:
            raise CampaignError(
                f"cannot resume: {self.path} has no readable journal header"
            )
        if header.get("campaign") != self.campaign:
            raise CampaignError(
                f"cannot resume: journal belongs to campaign "
                f"{header.get('campaign')!r}, not {self.campaign!r}"
            )
        if header.get("spec_hash") != self.spec_hash:
            raise CampaignError(
                "cannot resume: the campaign definition changed "
                f"(journal spec hash {header.get('spec_hash')!r}, current "
                f"{self.spec_hash!r}) — use a fresh directory"
            )
        if header.get("code_version") != self.code_version:
            raise CampaignError(
                "cannot resume: the repro code changed since this campaign "
                f"ran (journal code version {header.get('code_version')!r}, "
                f"current {self.code_version!r}) — results would mix code "
                "versions; re-run into a fresh directory"
            )

    def _write_line(self, entry: Mapping[str, Any]) -> None:
        if self._torn_tail:
            self._fh.write("\n")  # terminate the torn line first
            self._torn_tail = False
        self._fh.write(json.dumps(entry, sort_keys=True, default=repr) + "\n")
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            pass

    def write_garbage_line(self) -> None:
        """Simulate a torn write (the ``corrupt`` checkpoint fault)."""
        self._fh.write('{"seq": ')  # no newline: a genuinely torn entry
        self._torn_tail = True
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            pass

    def record_scenario(self, name: str, status: str, **detail: Any) -> None:
        entry = {
            "seq": self.next_seq,
            "event": "scenario",
            "name": name,
            "status": status,
            **detail,
        }
        self._write_line(entry)
        self.scenarios[name] = entry
        self.next_seq += 1

    def record_report(self) -> None:
        self._write_line({"seq": self.next_seq, "event": "report"})
        self.report_done = True
        self.next_seq += 1

    def scenario_status(self, name: str) -> Optional[str]:
        entry = self.scenarios.get(name)
        return None if entry is None else str(entry.get("status"))

    def close(self) -> None:
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except Exception:
            pass
        try:
            self._fh.close()
        except Exception:
            pass
