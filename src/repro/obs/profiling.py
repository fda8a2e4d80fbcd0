"""Per-cell cProfile capture and cross-sweep hotspot aggregation.

``REPRO_PROFILE=1`` (or ``Experiment.profile()``) makes the runner wrap
each fresh cell's scenario function in :class:`cProfile.Profile`.  The
captured stats travel back from the worker in a compact picklable form
— ``{(file, line, func): (cc, nc, tt, ct)}`` with caller chains
stripped — ride the ``RunRecord.profile`` field, and are merged across
the sweep by :func:`merge_profiles` into the :func:`hotspot_table`
printed by ``--profile``/verbose output.

Like everything in :mod:`repro.obs`, the capture is gated once per
sweep (the runner reads the flag at ``run_matrix`` entry); a disabled
sweep never touches :mod:`cProfile`.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.sim.engine import env_flag

__all__ = [
    "PROFILE_ENV",
    "hotspot_table",
    "merge_profiles",
    "profile_call",
    "profiling_requested",
]

#: Environment variable enabling per-cell cProfile capture.
PROFILE_ENV = "REPRO_PROFILE"

#: ``{(file, line, func): (cc, nc, tt, ct)}``
ProfileStats = Dict[Tuple[str, int, str], Tuple[int, int, float, float]]


def profiling_requested() -> bool:
    """True when ``REPRO_PROFILE`` asks for per-cell capture."""
    return env_flag(PROFILE_ENV)


def profile_call(fn: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Tuple[Any, ProfileStats]:
    """Run ``fn`` under cProfile; return ``(result, compact stats)``.

    The stats keep only the per-function 4-tuple ``(call count,
    non-recursive calls, total time, cumulative time)`` — caller chains
    are dropped so the payload pickles cheaply across the worker pipe.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        prof.disable()
    prof.create_stats()
    stats: ProfileStats = {
        key: value[:4] for key, value in prof.stats.items()  # type: ignore[attr-defined]
    }
    return result, stats


def merge_profiles(profiles: Iterable[Optional[ProfileStats]]) -> ProfileStats:
    """Sum per-function stats across many cells (``None`` entries skipped)."""
    merged: Dict[Tuple[str, int, str], list] = {}
    for stats in profiles:
        if not stats:
            continue
        for key, (cc, nc, tt, ct) in stats.items():
            slot = merged.get(key)
            if slot is None:
                merged[key] = [cc, nc, tt, ct]
            else:
                slot[0] += cc
                slot[1] += nc
                slot[2] += tt
                slot[3] += ct
    return {key: tuple(value) for key, value in merged.items()}


def hotspot_table(merged: ProfileStats, top: int = 15) -> str:
    """Render the top-``top`` functions by total (self) time."""
    if not merged:
        return "profile: no samples captured"
    rows = sorted(merged.items(), key=lambda kv: kv[1][2], reverse=True)[:top]
    lines = [
        f"profile hotspots (top {len(rows)} by self time, "
        f"{len(merged)} functions total)",
        f"  {'calls':>10} {'tottime':>9} {'cumtime':>9}  function",
    ]
    for (file, line, func), (cc, nc, tt, ct) in rows:
        where = func if file == "~" else f"{os.path.basename(file)}:{line}:{func}"
        lines.append(f"  {nc:>10} {tt:>9.4f} {ct:>9.4f}  {where}")
    return "\n".join(lines)
