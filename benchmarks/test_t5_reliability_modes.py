"""T5 — negotiable reliability over a media stream (paper §1, feature 1).

Regenerates the reliability trade-off table: an MPEG-like 25 fps stream
over a 3%-lossy link under the four negotiable modes.  The decisive
column is ``useful`` — the fraction of sent messages that arrived
*before their playout deadline*: NONE loses frames outright, FULL
repairs them but late, and the partial modes give the best of both.

Driven by the :mod:`repro.api` Experiment/ResultSet front door.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.core.profile import ReliabilityMode
from repro.harness.tables import format_table


pytestmark = pytest.mark.slow

MODES = (
    ReliabilityMode.NONE,
    ReliabilityMode.PARTIAL_TIME,
    ReliabilityMode.PARTIAL_COUNT,
    ReliabilityMode.FULL,
)


@pytest.fixture(scope="module")
def sweep():
    return (
        Experiment("reliability_modes")
        .sweep(mode=tuple(m.value for m in MODES))
        .configure(duration=60.0, seed=2)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_t5_table(sweep):
    rows = []
    for mode in MODES:
        r = sweep.one(mode=mode.value)
        rows.append(
            [
                r.mode,
                r.sent,
                r.delivered,
                r.skipped,
                r.retransmissions,
                r.abandoned,
                r.on_time_ratio,
                r.useful_ratio,
                r.mean_latency * 1e3,
                r.p95_latency * 1e3,
            ]
        )
    emit_table(
        "t5_reliability_modes",
        format_table(
            ["mode", "sent", "delivered", "skipped", "retx", "abandoned",
             "on-time", "useful", "mean lat (ms)", "p95 lat (ms)"],
            rows,
            title="T5: media stream (25 fps, 280 ms playout) over a 3% lossy "
                  "link, by reliability mode",
        ),
    )


def test_t5_full_delivers_most(sweep):
    assert sweep.value("delivered", mode="full") >= sweep.value(
        "delivered", mode="none"
    )


def test_t5_latency_ordering(sweep):
    assert sweep.value("p95_latency", mode="none") < sweep.value(
        "p95_latency", mode="full"
    )


def test_t5_partial_time_best_useful_ratio(sweep):
    best = sweep.value("useful_ratio", mode="partial-time")
    assert best >= sweep.value("useful_ratio", mode="none") - 0.01
    assert best >= sweep.value("useful_ratio", mode="full") - 0.01
