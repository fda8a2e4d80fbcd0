"""Flow-completion-time records and summaries (PR 6).

Finite flows (``FlowSpec.size_bytes``) end by delivering their byte
budget; the sender stamps ``completed_at`` when they do.  A
:class:`FlowCompletion` freezes one such lifecycle and
:func:`fct_summary` distills a population of them into the scalar
metrics scenario results report (mean/p50/p95/max completion time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.metrics.stats import fold_sum, percentile


@dataclass(frozen=True)
class FlowCompletion:
    """One finished finite flow: identity, schedule and byte budget."""

    flow_id: str
    start: float
    completed_at: float
    size_bytes: int

    @property
    def duration(self) -> float:
        """Flow completion time (seconds from start to final delivery)."""
        return self.completed_at - self.start

    @property
    def goodput_bps(self) -> float:
        """Budget bytes over the completion time, in bits/s."""
        d = self.duration
        return self.size_bytes * 8.0 / d if d > 0 else 0.0


@dataclass(frozen=True)
class FctSummary:
    """Scalar digest of a completed-flow population (times in seconds).

    ``completed`` counts the completions summarized; the statistics are
    0.0 when nothing completed (a scenario cut off before any flow
    finished), so results stay scalar and sweepable either way.
    """

    completed: int
    mean: float
    p50: float
    p95: float
    max: float


def fct_summary(completions: Sequence[FlowCompletion]) -> FctSummary:
    """Summarize flow completion times; all-zero when nothing completed."""
    durations = [c.duration for c in completions]
    if not durations:
        return FctSummary(completed=0, mean=0.0, p50=0.0, p95=0.0, max=0.0)
    return FctSummary(
        completed=len(durations),
        mean=fold_sum(durations) / len(durations),
        p50=percentile(durations, 50.0),
        p95=percentile(durations, 95.0),
        max=max(durations),
    )
