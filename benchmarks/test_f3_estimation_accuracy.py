"""F3 — sender-side vs receiver-side loss estimation (paper §3).

Regenerates the accuracy figure behind QTPlight: on one packet stream,
the sender's SACK-reconstructed loss event rate against a shadow
RFC 3448 receiver-side estimator, across channel loss rates.

Driven by the :mod:`repro.api` Experiment/ResultSet front door.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table


pytestmark = pytest.mark.slow

LOSS_RATES = (0.005, 0.01, 0.02, 0.04, 0.08)


@pytest.fixture(scope="module")
def sweep():
    return (
        Experiment("estimation_accuracy")
        .sweep(loss_rate=LOSS_RATES)
        .configure(duration=50.0, warmup=10.0, seed=2)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_f3_table(sweep):
    rows = []
    for loss in LOSS_RATES:
        r = sweep.one(loss_rate=loss)
        rows.append(
            [
                f"{loss * 100:.1f}%",
                r.mean_p_shadow,
                r.mean_p_sender,
                r.mean_abs_rel_error,
                r.goodput_bps / 1e3,
            ]
        )
    emit_table(
        "f3_estimation_accuracy",
        format_table(
            ["channel loss", "p receiver-side", "p sender-side",
             "mean |rel err|", "goodput (kb/s)"],
            rows,
            title="F3: QTPlight sender-side loss-event rate vs shadow "
                  "RFC 3448 receiver estimate",
        ),
    )


def test_f3_agreement_within_ten_percent(sweep):
    for loss in LOSS_RATES[1:]:
        assert sweep.value("mean_abs_rel_error", loss_rate=loss) < 0.10, loss


def test_f3_estimates_track_channel(sweep):
    for loss in (0.02, 0.04, 0.08):
        assert sweep.value("mean_p_sender", loss_rate=loss) == pytest.approx(
            loss, rel=0.5
        )
