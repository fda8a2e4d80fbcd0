"""T4 — selfish receiver robustness (paper §3 / Georg & Gorinsky).

Regenerates the 2x2 attack table: a (possibly lying) receiver sharing a
4 Mb/s bottleneck with an honest TFRC flow.  Standard TFRC trusts the
receiver-computed loss rate, so the lie doubles the cheater's share and
starves the victim; QTPlight computes the loss rate at the sender and
audits SACK coverage with never-sent sequence numbers, so the cheater
is detected and throttled to the protocol floor.

Driven by the :mod:`repro.api` Experiment/ResultSet front door.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table


pytestmark = pytest.mark.slow

CONFIG = dict(duration=60.0, warmup=15.0, seed=2)


@pytest.fixture(scope="module")
def matrix():
    return (
        Experiment("selfish_receiver")
        .sweep(mode=("tfrc", "qtplight"), lying=(False, True))
        .configure(**CONFIG)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_t4_table(matrix):
    rows = []
    for mode in ("tfrc", "qtplight"):
        honest = matrix.one(mode=mode, lying=False)
        lying = matrix.one(mode=mode, lying=True)
        rows.append(
            [
                mode,
                honest.cheater_bps / 1e6,
                lying.cheater_bps / 1e6,
                lying.cheater_bps / max(honest.cheater_bps, 1.0),
                honest.victim_bps / 1e6,
                lying.victim_bps / 1e6,
            ]
        )
    emit_table(
        "t4_selfish_receiver",
        format_table(
            ["estimation", "cheater honest (Mb/s)", "cheater lying (Mb/s)",
             "lying gain", "victim (honest run)", "victim (lying run)"],
            rows,
            title="T4: selfish-receiver attack, 4 Mb/s bottleneck shared "
                  "with one honest TFRC",
        ),
    )


def test_t4_standard_tfrc_cheatable(matrix):
    lying = matrix.one(mode="tfrc", lying=True)
    honest = matrix.one(mode="tfrc", lying=False)
    assert lying.cheater_bps > 1.5 * honest.cheater_bps


def test_t4_qtplight_throttles_cheater(matrix):
    lying = matrix.one(mode="qtplight", lying=True)
    honest = matrix.one(mode="qtplight", lying=False)
    assert lying.cheater_bps < 0.1 * honest.cheater_bps


def test_t4_victim_protected_under_qtplight(matrix):
    # with the cheater throttled, the honest victim keeps (at least) its share
    lying = matrix.one(mode="qtplight", lying=True)
    honest = matrix.one(mode="qtplight", lying=False)
    assert lying.victim_bps >= honest.victim_bps
