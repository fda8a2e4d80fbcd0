"""F2 — lossy multi-hop paths: TCP vs TFRC (paper §2, claim 1).

Regenerates the goodput-vs-loss-rate figure over a 3-hop chain whose
hops carry independent Gilbert–Elliott bursty loss (the vehicular /
ad-hoc regime of refs [1] and [9]).  Expected shape: comparable at low
loss; TFRC increasingly ahead as loss grows (TCP melts down to RTO
backoff under loss bursts).  A Bernoulli column is included to show
that the advantage is specific to bursty loss.

The chain itself is now spec-compiled (``lossy_chain_spec`` +
``ChannelSpec``) and the sweep runs through
:class:`repro.api.Experiment` — the committed table is byte-identical
to the hand-built version both replaced.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table

pytestmark = pytest.mark.slow

LOSS_RATES = (0.005, 0.01, 0.02, 0.05, 0.08)
CONFIG = dict(n_hops=3, duration=40.0, warmup=10.0, seed=2)


@pytest.fixture(scope="module")
def sweep():
    return (
        Experiment("lossy_path")
        .sweep(
            loss_rate=LOSS_RATES,
            protocol=("tcp", "tfrc"),
            bursty=(True, False),
        )
        .configure(**CONFIG)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_f2_table(sweep):
    rows = []
    for loss in LOSS_RATES:
        tcp_b = sweep.value("goodput_bps", loss_rate=loss, protocol="tcp", bursty=True)
        tfrc_b = sweep.value("goodput_bps", loss_rate=loss, protocol="tfrc", bursty=True)
        tcp_u = sweep.value("goodput_bps", loss_rate=loss, protocol="tcp", bursty=False)
        tfrc_u = sweep.value("goodput_bps", loss_rate=loss, protocol="tfrc", bursty=False)
        rows.append(
            [
                f"{loss * 100:.1f}%",
                tcp_b / 1e3,
                tfrc_b / 1e3,
                tfrc_b / max(tcp_b, 1e3),
                tcp_u / 1e3,
                tfrc_u / 1e3,
            ]
        )
    emit_table(
        "f2_wireless",
        format_table(
            ["loss", "tcp bursty (kb/s)", "tfrc bursty (kb/s)",
             "tfrc/tcp (bursty)", "tcp iid (kb/s)", "tfrc iid (kb/s)"],
            rows,
            title="F2: goodput over a 3-hop 2 Mb/s chain with per-hop loss",
        ),
    )


def test_f2_tfrc_ahead_under_bursty_loss(sweep):
    for loss in LOSS_RATES[2:]:
        tcp = sweep.value("goodput_bps", loss_rate=loss, protocol="tcp", bursty=True)
        tfrc = sweep.value("goodput_bps", loss_rate=loss, protocol="tfrc", bursty=True)
        assert tfrc > tcp, loss


def test_f2_advantage_grows_with_loss(sweep):
    def ratio(loss):
        tcp = sweep.value("goodput_bps", loss_rate=loss, protocol="tcp", bursty=True)
        tfrc = sweep.value("goodput_bps", loss_rate=loss, protocol="tfrc", bursty=True)
        return tfrc / max(tcp, 1e3)

    assert ratio(LOSS_RATES[-1]) > ratio(LOSS_RATES[0])
