"""Deterministic, seedable fault injection for the sweep fabric.

This module is the chaos plane behind the fault-tolerant
:func:`~repro.harness.runner.run_matrix` (PR 7): it lets a test, a CI
smoke step or a curious user make chosen sweep cells misbehave in
controlled, *reproducible* ways, so every resilience guarantee the
runner makes — per-run timeouts, bounded retry, crash repair, terminal
:class:`~repro.harness.result.RunFailure` records — is provable with
ordinary assertions instead of hope.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultSpec` rules.  Each rule selects cells (by scenario name
and/or a parameter subset), an attempt window (``times`` — fire only on
the first N attempts, so retries eventually succeed; ``None`` fires
forever, producing terminal failures) and a ``rate`` (probability per
matching ``(cell, attempt)``).  Four fault kinds cover the failure
modes a production experiment fabric must survive:

``raise``
    the worker raises :class:`InjectedFault` — an ordinary in-run
    exception (a scenario bug);
``hang``
    the worker sleeps ``seconds`` before running — a wedged run, which
    a per-run timeout must reap;
``exit``
    the worker dies hard via ``os._exit`` (indistinguishable from
    SIGKILL/OOM from the parent's side) — a crashed worker the pool
    must detect and respawn;
``corrupt``
    the worker returns :class:`CorruptRecord` garbage instead of its
    :class:`~repro.harness.runner.RunRecord` — a poisoned IPC payload
    the runner's response validation must reject.

Determinism: whether a rule fires for ``(scenario, params, attempt)``
is a pure function of the plan seed, the rule index and the
JSON-canonicalized cell — the same plan over the same grid injects the
same faults in the same places, in any process, with any worker count
and in any completion order.  That is what lets the chaos suite assert
byte-identical surviving records.

Plans travel *with the task* into worker processes (they are small
frozen dataclasses), never via worker-side environment reads — a warm
pool forked before ``REPRO_FAULTS`` changed must not serve stale chaos.
The environment hook is read once per ``run_matrix`` call in the
parent::

    REPRO_FAULTS='{"seed": 1, "faults": [
        {"kind": "raise", "rate": 0.2},
        {"kind": "hang", "rate": 0.1, "seconds": 30}
    ]}' python -m repro.harness run ... --max-retries 3 --run-timeout 5
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "CAMPAIGN_CHECKPOINT_SCOPE",
    "CorruptRecord",
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "parse_fault_plan",
    "plan_from_env",
]

#: Environment variable carrying a JSON :class:`FaultPlan` for
#: :func:`~repro.harness.runner.run_matrix` (read in the parent at call
#: time; an explicit ``faults=`` argument wins over the variable).
FAULTS_ENV = "REPRO_FAULTS"

#: The fault kinds :meth:`FaultSpec.__post_init__` accepts.
KINDS = ("raise", "hang", "exit", "corrupt")

#: Pseudo-scenario name under which the campaign runner consults the
#: fault plan before every journal checkpoint.  A chaos plan that sets
#: ``"scenario": "campaign.checkpoint"`` targets the *orchestrator*
#: (params: ``{"name": <job or "report">, "seq": <checkpoint number>}``)
#: instead of sweep cells: ``exit`` hard-kills the campaign process at
#: that checkpoint, ``raise`` surfaces :class:`InjectedFault` from
#: ``Campaign.run``, ``hang`` stalls it, and ``corrupt`` makes the
#: journal write a torn garbage line before the real entry.  Rules
#: without a scenario selector match both planes — scope chaos plans
#: explicitly when that is not intended.
CAMPAIGN_CHECKPOINT_SCOPE = "campaign.checkpoint"


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws inside a run."""


@dataclass(frozen=True)
class CorruptRecord:
    """The garbage payload a ``corrupt`` fault returns instead of a record.

    Deliberately *not* a :class:`~repro.harness.runner.RunRecord`: the
    runner's response validation must reject it, proving that a worker
    returning nonsense surfaces as a retryable failure rather than
    poisoning the result list or the cache.
    """

    scenario: str
    note: str = "injected corrupt record"


@dataclass(frozen=True)
class FaultSpec:
    """One fault-injection rule (see the module docstring for kinds)."""

    kind: str
    scenario: Optional[str] = None  # None = any scenario
    match: Mapping[str, Any] = field(default_factory=dict)  # params subset
    rate: float = 1.0  # probability per matching (cell, attempt)
    times: Optional[int] = 1  # fire on the first N attempts; None = always
    seconds: float = 30.0  # hang duration
    exit_code: int = 13  # os._exit status for ``exit`` faults

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"fault times must be >= 1 or None, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"hang seconds must be >= 0, got {self.seconds}")

    def matches_cell(self, scenario: str, params: Mapping[str, Any]) -> bool:
        """True when this rule selects the given sweep cell."""
        if self.scenario is not None and self.scenario != scenario:
            return False
        return all(params.get(k) == v for k, v in self.match.items())


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of :class:`FaultSpec` rules.

    The first rule that matches a ``(cell, attempt)`` and wins its
    probability roll decides; later rules are not consulted.  An empty
    plan never fires.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def decide(
        self, scenario: str, params: Mapping[str, Any], attempt: int
    ) -> Optional[FaultSpec]:
        """The fault to inject for this ``(cell, attempt)``, if any.

        A pure function of the plan and its arguments: the decision is
        identical in every process and for every worker count.
        """
        for index, spec in enumerate(self.faults):
            if not spec.matches_cell(scenario, params):
                continue
            if spec.times is not None and attempt > spec.times:
                continue
            if spec.rate < 1.0 and self._roll(index, scenario, params, attempt) >= spec.rate:
                continue
            return spec
        return None

    def _roll(
        self, index: int, scenario: str, params: Mapping[str, Any], attempt: int
    ) -> float:
        """Deterministic uniform [0, 1) draw for one (rule, cell, attempt)."""
        import hashlib

        payload = json.dumps(
            [self.seed, index, scenario, dict(params), attempt],
            sort_keys=True,
            default=repr,
        )
        digest = hashlib.sha256(payload.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def apply(
        self, scenario: str, params: Mapping[str, Any], attempt: int
    ) -> Optional[CorruptRecord]:
        """Inject the decided fault (if any) for this run attempt.

        Called inside the worker just before the scenario executes:
        ``raise`` throws, ``hang`` sleeps then lets the run proceed,
        ``exit`` never returns, ``corrupt`` short-circuits the run by
        returning the garbage payload for the worker to send back.
        Returns ``None`` when no fault fires (the normal path).
        """
        spec = self.decide(scenario, params, attempt)
        if spec is None:
            return None
        if spec.kind == "raise":
            raise InjectedFault(
                f"injected fault for {scenario} {dict(params)!r} "
                f"(attempt {attempt})"
            )
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return None
        if spec.kind == "exit":
            os._exit(spec.exit_code)
        return CorruptRecord(scenario=scenario)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the JSON :class:`FaultPlan` form used by :data:`FAULTS_ENV`.

    Accepts either the full object form ``{"seed": N, "faults": [...]}``
    or a bare rule list ``[...]`` (seed 0).  Unknown rule keys are
    rejected so a typo (``"rte"``) fails loudly instead of injecting
    nothing.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"unparseable fault plan JSON: {exc}") from None
    if isinstance(payload, list):
        payload = {"faults": payload}
    if not isinstance(payload, dict):
        raise ValueError(
            "fault plan must be a JSON object or list, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - {"seed", "faults"})
    if unknown:
        raise ValueError(f"unknown fault plan key(s) {unknown}")
    rules = []
    known_fields = {
        "kind", "scenario", "match", "rate", "times", "seconds", "exit_code",
    }
    for i, entry in enumerate(payload.get("faults", ())):
        if not isinstance(entry, dict):
            raise ValueError(f"fault rule #{i} must be an object")
        bad = sorted(set(entry) - known_fields)
        if bad:
            raise ValueError(
                f"fault rule #{i} has unknown key(s) {bad}; "
                f"known: {sorted(known_fields)}"
            )
        entry = dict(entry)
        if "match" in entry:
            entry["match"] = dict(entry["match"])
        rules.append(FaultSpec(**entry))
    return FaultPlan(seed=int(payload.get("seed", 0)), faults=tuple(rules))


def plan_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The :data:`FAULTS_ENV` plan, or ``None`` when unset/empty."""
    text = (environ if environ is not None else os.environ).get(
        FAULTS_ENV, ""
    ).strip()
    if not text:
        return None
    return parse_fault_plan(text)
