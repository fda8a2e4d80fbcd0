"""F4 — TCP-friendliness of TFRC (paper §2).

Regenerates the sharing figure: one TFRC flow against N TCP flows on an
8 Mb/s RED bottleneck.  The normalized throughput (TFRC rate over the
mean TCP rate) should stay within the conventional [0.5, 2] friendliness
band across N, with a high Jain index.

Driven by the :mod:`repro.api` Experiment/ResultSet front door.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table

pytestmark = pytest.mark.slow

N_TCP = (1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def sweep():
    return (
        Experiment("friendliness")
        .sweep(n_tcp=N_TCP)
        .configure(duration=60.0, warmup=15.0, seed=2)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_f4_table(sweep):
    rows = []
    for n in N_TCP:
        r = sweep.one(n_tcp=n)
        rows.append(
            [n, r.tfrc_bps / 1e6, r.tcp_mean_bps / 1e6, r.normalized, r.jain]
        )
    emit_table(
        "f4_friendliness",
        format_table(
            ["n tcp", "tfrc (Mb/s)", "tcp mean (Mb/s)", "normalized", "jain"],
            rows,
            title="F4: one TFRC vs N TCP on an 8 Mb/s RED bottleneck",
        ),
    )


def test_f4_friendliness_band(sweep):
    for n in N_TCP:
        assert 0.4 <= sweep.value("normalized", n_tcp=n) <= 2.0, n


def test_f4_jain_high(sweep):
    for n in N_TCP:
        assert sweep.value("jain", n_tcp=n) > 0.85, n
