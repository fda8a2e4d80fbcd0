"""T2 — AF assurance vs RTT asymmetry (paper §4 / Seddigh et al.).

The TCP bandwidth-assurance failure is RTT-dependent: the longer the
assured flow's RTT relative to the cross traffic, the further TCP falls
below its reservation, while QTPAF stays pinned.  This regenerates the
achieved/target matrix over the assured flow's access delay, driven by
the :mod:`repro.api` Experiment/ResultSet front door.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table


pytestmark = pytest.mark.slow

ACCESS_DELAYS = (0.002, 0.03, 0.06, 0.1)  # one-way; RTT ~= 4x + 40 ms
PROTOCOLS = ("tcp", "qtpaf")
CONFIG = dict(target_bps=5e6, n_cross=8, duration=40.0, warmup=10.0, seed=3)


@pytest.fixture(scope="module")
def sweep():
    return (
        Experiment("af_assurance")
        .sweep(assured_access_delay=ACCESS_DELAYS, protocol=PROTOCOLS)
        .configure(**CONFIG)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_t2_table(sweep):
    rows = []
    for delay in ACCESS_DELAYS:
        rtt_ms = (2 * (delay + 0.002) + 2 * 0.02) * 1e3
        row = [f"{rtt_ms:.0f}"]
        for proto in PROTOCOLS:
            row.append(
                sweep.value("ratio", assured_access_delay=delay, protocol=proto)
            )
        rows.append(row)
    emit_table(
        "t2_rtt_asymmetry",
        format_table(
            ["assured RTT (ms)", "tcp ratio", "qtpaf ratio"],
            rows,
            title="T2: achieved/negotiated vs assured-flow RTT (g = 5 Mb/s)",
        ),
    )


def test_t2_tcp_degrades_with_rtt(sweep):
    first = sweep.value(
        "ratio", assured_access_delay=ACCESS_DELAYS[0], protocol="tcp"
    )
    last = sweep.value(
        "ratio", assured_access_delay=ACCESS_DELAYS[-1], protocol="tcp"
    )
    assert last < first

def test_t2_qtpaf_rtt_insensitive(sweep):
    ratios = [
        sweep.value("ratio", assured_access_delay=d, protocol="qtpaf")
        for d in ACCESS_DELAYS
    ]
    assert min(ratios) >= 0.9
