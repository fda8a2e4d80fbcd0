"""Campaign specifications: named, hashable bundles of experiments.

A :class:`CampaignSpec` is the durable identity of one campaign: an
ordered tuple of :class:`JobSpec` entries, each naming one
:class:`~repro.api.Experiment` definition (scenario, grid, base,
seeds) plus its execution tuning (workers, retries, timeout) and
failure policy.  The spec serializes to/from plain JSON — this is what
``campaign.json`` stores and what ``campaign run <spec.json>`` loads —
and :meth:`CampaignSpec.spec_hash` digests the *identity* fields so
resume can refuse a directory whose campaign definition changed.

Execution tuning (workers/retries/timeout) is deliberately excluded
from the hash: re-running a campaign with a different worker count
must produce identical results (the sweep fabric's determinism
guarantee), so it is not part of what makes two campaigns "the same".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.experiment import Experiment
from repro.ioutil import sha256

__all__ = ["CampaignError", "CampaignSpec", "JobSpec", "load_spec"]


class CampaignError(RuntimeError):
    """A campaign-level usage or state error (bad spec, bad resume)."""


def _frozen_grid(grid: Mapping[str, Sequence[Any]]) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    return tuple((name, tuple(values)) for name, values in grid.items())


@dataclass(frozen=True)
class JobSpec:
    """One named experiment inside a campaign.

    ``name`` keys the scenario subdirectory (``scenarios/<name>/``),
    the journal entries and the report section, so it must be unique
    within the campaign and filesystem-safe.  ``custom_table`` records
    that the in-process :class:`~repro.campaign.runner.Campaign` holds
    a Python renderer for this job's ``table.txt`` — such a campaign
    can only be resumed through the same script, never from the bare
    JSON spec (the CLI refuses, naming the job).
    """

    name: str
    scenario: str
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    base: Tuple[Tuple[str, Any], ...] = ()
    seeds: Optional[Tuple[int, ...]] = None
    workers: Optional[int] = 1
    retries: Optional[int] = None
    timeout: Optional[float] = None
    on_failure: str = "keep"
    custom_table: bool = False

    def __post_init__(self) -> None:
        if not self.name or any(ch in self.name for ch in "/\\\0"):
            raise CampaignError(f"job name {self.name!r} is not filesystem-safe")
        if self.on_failure not in ("keep", "retry"):
            # "raise" would abort the campaign on the first bad cell,
            # defeating graceful degradation; terminal sweep errors are
            # still caught and recorded per job
            raise CampaignError(
                f"job {self.name!r}: on_failure must be 'keep' or 'retry', "
                f"got {self.on_failure!r}"
            )

    @classmethod
    def from_experiment(
        cls,
        name: str,
        experiment: Experiment,
        *,
        on_failure: str = "keep",
        custom_table: bool = False,
    ) -> "JobSpec":
        d = experiment.describe()
        return cls(
            name=name,
            scenario=d["scenario"],
            grid=_frozen_grid(d["grid"]),
            base=tuple(d["base"].items()),
            seeds=tuple(d["seeds"]) if d["seeds"] is not None else None,
            workers=d["workers"],
            retries=d["retries"],
            timeout=d["timeout"],
            on_failure=on_failure,
            custom_table=custom_table,
        )

    def experiment(self) -> Experiment:
        """Rebuild the :class:`Experiment` this spec describes."""
        exp = Experiment(self.scenario)
        if self.grid:
            exp.sweep({name: list(values) for name, values in self.grid})
        if self.base:
            exp.configure(**dict(self.base))
        if self.seeds is not None:
            exp.seeds(self.seeds)
        exp.workers(self.workers)
        if self.retries is not None:
            exp.retries(self.retries)
        if self.timeout is not None:
            exp.timeout(self.timeout)
        return exp

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "grid": {name: list(values) for name, values in self.grid},
            "base": dict(self.base),
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "workers": self.workers,
            "retries": self.retries,
            "timeout": self.timeout,
            "on_failure": self.on_failure,
            "custom_table": self.custom_table,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobSpec":
        known = {
            "name", "scenario", "grid", "base", "seeds", "workers",
            "retries", "timeout", "on_failure", "custom_table",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise CampaignError(
                f"job spec has unknown key(s) {unknown}; known: {sorted(known)}"
            )
        if "name" not in payload or "scenario" not in payload:
            raise CampaignError("job spec needs at least 'name' and 'scenario'")
        seeds = payload.get("seeds")
        return cls(
            name=payload["name"],
            scenario=payload["scenario"],
            grid=_frozen_grid(payload.get("grid", {})),
            base=tuple(dict(payload.get("base", {})).items()),
            seeds=tuple(int(s) for s in seeds) if seeds is not None else None,
            workers=payload.get("workers", 1),
            retries=payload.get("retries"),
            timeout=payload.get("timeout"),
            on_failure=payload.get("on_failure", "keep"),
            custom_table=bool(payload.get("custom_table", False)),
        )

    def identity(self) -> Dict[str, Any]:
        """The hash-relevant subset (no execution tuning)."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "grid": {name: list(values) for name, values in self.grid},
            "base": dict(self.base),
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "on_failure": self.on_failure,
            "custom_table": self.custom_table,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """The full, ordered definition of one campaign."""

    name: str
    jobs: Tuple[JobSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign needs a non-empty name")
        seen: Dict[str, int] = {}
        for job in self.jobs:
            if job.name in seen:
                raise CampaignError(f"duplicate job name {job.name!r}")
            seen[job.name] = 1

    def spec_hash(self) -> str:
        """Digest of the campaign identity (stable across runs/hosts)."""
        payload = json.dumps(
            {"name": self.name, "jobs": [job.identity() for job in self.jobs]},
            sort_keys=True,
            default=repr,
        )
        return sha256(payload.encode()).hexdigest()[:16]

    def to_json(self) -> Dict[str, Any]:
        return {
            "campaign": 1,
            "name": self.name,
            "jobs": [job.to_json() for job in self.jobs],
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(payload, Mapping):
            raise CampaignError(
                f"campaign spec must be a JSON object, got {type(payload).__name__}"
            )
        if "name" not in payload:
            raise CampaignError("campaign spec needs a 'name'")
        jobs = payload.get("jobs", [])
        if not isinstance(jobs, (list, tuple)):
            raise CampaignError("'jobs' must be a list of job specs")
        return cls(
            name=payload["name"],
            jobs=tuple(JobSpec.from_json(entry) for entry in jobs),
        )


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Parse a campaign spec file (the ``campaign run <spec>`` input)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CampaignError(f"cannot read campaign spec {path}: {exc}") from None
    except ValueError as exc:
        raise CampaignError(f"unparseable campaign spec {path}: {exc}") from None
    return CampaignSpec.from_json(payload)
