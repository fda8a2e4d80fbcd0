"""F5 — recovery of the guaranteed rate after a congestion step (paper §4).

At t = 20 s a burst of 8 greedy TCP flows joins the AF bottleneck.
Plain TFRC reacts to the resulting (out-of-profile) losses and dips far
below the reservation, taking seconds to crawl back; gTFRC's floor
keeps the assured flow at ``g`` throughout.  The figure is the assured
flow's throughput time series around the step; the table reports the
dip depth and the time spent below 90% of ``g``.

Driven by the :mod:`repro.api` Experiment/ResultSet front door; the
series "figure" reads the result's payload (non-metric) field.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table


pytestmark = pytest.mark.slow

TARGET = 5e6
STEP_TIME = 20.0
PROTOCOLS = ("tfrc", "gtfrc")


@pytest.fixture(scope="module")
def runs():
    return (
        Experiment("convergence")
        .sweep(protocol=PROTOCOLS)
        .configure(target_bps=TARGET, step_time=STEP_TIME, seed=3)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_f5_table(runs):
    rows = []
    for proto in PROTOCOLS:
        r = runs.one(protocol=proto)
        rows.append(
            [
                proto,
                r.min_after_step / 1e6,
                r.time_below_90pct,
                r.mean_after_step / 1e6,
            ]
        )
    emit_table(
        "f5_convergence",
        format_table(
            ["protocol", "min rate after step (Mb/s)",
             "seconds below 0.9 g", "mean after step (Mb/s)"],
            rows,
            title=f"F5: congestion step at t={STEP_TIME:.0f}s, g = 5 Mb/s "
                  "(8 TCP join)",
        ),
    )
    # series "figure" as a coarse text sparkline (a payload field, not
    # a metric — read through the result object)
    marks = " ".join(
        f"{v / 1e6:.1f}"
        for v in runs.one(protocol="gtfrc").series_bps[::5]
    )
    emit_table("f5_series_gtfrc", "gTFRC Mb/s every 5 s: " + marks)


def test_f5_gtfrc_holds_through_step(runs):
    gtfrc = runs.one(protocol="gtfrc")
    assert gtfrc.time_below_90pct <= 3.0
    assert gtfrc.mean_after_step >= 0.9 * TARGET


def test_f5_tfrc_dips_deeper(runs):
    assert runs.value("min_after_step", protocol="tfrc") < runs.value(
        "min_after_step", protocol="gtfrc"
    )
