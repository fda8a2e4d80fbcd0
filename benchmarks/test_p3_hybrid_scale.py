"""P3 — hybrid fidelity buys population scale (PR 10).

The scale argument for ``repro.fluid`` (``docs/hybrid.md``), pinned as
a table: the ``churn_1000`` workload simulates a 1000-flow generated
population with every flow packet-level, while the ``hybrid_100k``
workload pushes a 100,000-flow flash crowd through one fluid aggregate
per bottleneck with only the assured foreground packet-level.  A
packet-level run at 100k flows would cost roughly 100x the 1000-flow
wall clock; the hybrid run must deliver the hundredfold population for
a small constant factor instead, because its event count is bounded by
the foreground plus the epoch clock — not by the crowd.

The assertion is deliberately coarse (wall-clock ratios on shared CI
hosts are noisy): 100x the population for less than 25x the wall
clock, i.e. at least a 4x reduction in cost per simulated flow; the
committed table records the measured pair (~50x per flow).
"""

import time

import pytest

from conftest import emit_table
from repro.harness.registry import get_scenario
from repro.harness.tables import format_table

pytestmark = pytest.mark.slow

#: The configurations of the ``churn_1000`` and ``hybrid_100k`` workloads
#: (``perf/workloads.py``) at one scenario seed; keep these in sync with
#: them.  Whether either got slower is ``perf/run.py``'s question; this
#: table only holds the ratio between the two.
PACKET_CONFIG = dict(
    n_hosts=64,
    n_flows=1000,
    arrival_rate_per_s=250.0,
    elephant_share=0.02,
    duration=6.0,
    seed=1,
)
HYBRID_CONFIG = dict(
    fidelity="hybrid",
    n_flows=100_000,
    n_hosts=64,
    base_rate_per_s=2000.0,
    peak_rate_per_s=30000.0,
    ramp_start=1.0,
    ramp_duration=2.0,
    bottleneck_bps=2e9,
    target_bps=40e6,
    duration=6.0,
    seed=1,
)

#: 100x the population must cost less than this wall-clock multiple.
MAX_WALL_RATIO = 25.0


def _timed(scenario, *args, **kwargs):
    spec = get_scenario(scenario)
    start = time.perf_counter()
    result = spec.fn(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def runs():
    packet, packet_wall = _timed("mice_elephants", "gtfrc", **PACKET_CONFIG)
    hybrid, hybrid_wall = _timed("hybrid_flash_crowd", **HYBRID_CONFIG)
    return {
        "packet": (packet, packet_wall),
        "hybrid": (hybrid, hybrid_wall),
    }


def test_p3_hybrid_scale(runs):
    packet, packet_wall = runs["packet"]
    hybrid, hybrid_wall = runs["hybrid"]
    wall_ratio = hybrid_wall / packet_wall
    flows_ratio = HYBRID_CONFIG["n_flows"] / PACKET_CONFIG["n_flows"]
    rows = [
        [
            "churn_1000 (packet)",
            PACKET_CONFIG["n_flows"],
            f"{packet_wall:.2f}",
            "-",
            f"{packet_wall / PACKET_CONFIG['n_flows'] * 1e3:.3f}",
        ],
        [
            "hybrid_100k",
            HYBRID_CONFIG["n_flows"],
            f"{hybrid_wall:.2f}",
            hybrid.events,
            f"{hybrid_wall / HYBRID_CONFIG['n_flows'] * 1e3:.3f}",
        ],
    ]
    emit_table(
        "p3_hybrid_scale",
        format_table(
            ["benchmark", "flows", "wall (s)", "events", "ms/flow"],
            rows,
            title=(
                "P3: hybrid fidelity at population scale "
                f"({flows_ratio:.0f}x flows for {wall_ratio:.1f}x wall clock)"
            ),
        ),
    )
    # the scale claim: >=10x the population at bounded wall clock
    assert flows_ratio >= 10.0
    assert wall_ratio < MAX_WALL_RATIO, (
        f"100x population cost {wall_ratio:.1f}x wall clock "
        f"({hybrid_wall:.2f}s vs {packet_wall:.2f}s); hybrid fidelity "
        f"should stay under {MAX_WALL_RATIO}x"
    )


def test_p3_hybrid_run_is_healthy(runs):
    """The 100k run must be a real experiment, not a degenerate one."""
    hybrid, _ = runs["hybrid"]
    assert hybrid.ratio >= 1.0  # the assured foreground kept its rate
    assert hybrid.bg_offered_bytes > 1e9  # the crowd really offered GBs
    assert hybrid.bg_served_bytes > 0.0
    # bounded events: the crowd never became packet transports
    assert hybrid.events < 1_000_000
