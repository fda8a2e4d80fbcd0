"""A1 — gTFRC design ablation (DESIGN.md §6).

Compares the guaranteed-rate mechanisms on the T1 configuration:

* ``floor``      — the draft's hard ``X = max(g, X_tfrc)`` (default);
* ``p-scaling``  — scale the loss event rate by the out-of-profile
  share before the equation (smoother variant);
* ``none``       — plain TFRC (no QoS awareness).

Expected: both QoS-aware variants hold the reservation where plain
TFRC undershoots; the hard floor is the most exact.

Driven by the :mod:`repro.api` Experiment/ResultSet front door.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table


pytestmark = pytest.mark.slow

TARGET = 6e6
VARIANTS = ("floor", "p-scaling", "none")


@pytest.fixture(scope="module")
def runs():
    return (
        Experiment("gtfrc_ablation")
        .sweep(variant=VARIANTS)
        .configure(target_bps=TARGET, seed=3)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_a1_table(runs):
    rows = []
    for v in VARIANTS:
        r = runs.one(variant=v)
        rows.append(
            [v, r.achieved_bps / 1e6, r.achieved_bps / TARGET, r.floor_hits]
        )
    emit_table(
        "a1_gtfrc_ablation",
        format_table(
            ["variant", "achieved (Mb/s)", "ratio", "floor activations"],
            rows,
            title="A1: gTFRC mechanism ablation (g = 6 Mb/s, T1 conditions)",
        ),
    )


def test_a1_qos_variants_beat_plain_tfrc(runs):
    none = runs.value("achieved_bps", variant="none")
    assert runs.value("achieved_bps", variant="floor") > none
    assert runs.value("achieved_bps", variant="p-scaling") > none


def test_a1_floor_most_exact(runs):
    floor_err = abs(runs.value("achieved_bps", variant="floor") / TARGET - 1.0)
    assert floor_err < 0.1
