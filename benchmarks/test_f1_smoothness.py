"""F1 — throughput smoothness: TFRC vs TCP (paper §2/§3 motivation).

Regenerates the classic time-series comparison: one measured flow
against a TCP competitor on a RED bottleneck; the figure's signal is
the coefficient of variation of the per-200-ms throughput series.

The per-protocol "mean" rows are :meth:`repro.api.ResultSet.aggregate`
over the seed axis — the paper-style summary the old code assembled by
hand (same arithmetic, byte-identical table).
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def runs():
    return (
        Experiment("smoothness")
        .sweep(protocol=("tfrc", "tcp"))
        .configure(duration=80, warmup=20)
        .seeds(SEEDS)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_f1_table(runs):
    rows = []
    for proto in ("tfrc", "tcp"):
        for seed in SEEDS:
            r = runs.one(protocol=proto, seed=seed)
            rows.append([proto, seed, r.mean_bps / 1e6, r.cov])
    mean_cov = runs.aggregate("cov", over="seed", stats=("mean",))
    rows.append(["tfrc", "mean", "", mean_cov.value("cov_mean", protocol="tfrc")])
    rows.append(["tcp", "mean", "", mean_cov.value("cov_mean", protocol="tcp")])
    emit_table(
        "f1_smoothness",
        format_table(
            ["protocol", "seed", "mean rate (Mb/s)", "CoV (200 ms bins)"],
            rows,
            title="F1: throughput smoothness vs one TCP competitor "
                  "(4 Mb/s RED bottleneck)",
        ),
    )


def test_f1_tfrc_smoother_on_every_seed(runs):
    for seed in SEEDS:
        assert runs.value("cov", protocol="tfrc", seed=seed) < runs.value(
            "cov", protocol="tcp", seed=seed
        )


def test_f1_comparable_mean_rates(runs):
    for seed in SEEDS:
        tfrc = runs.one(protocol="tfrc", seed=seed)
        tcp = runs.one(protocol="tcp", seed=seed)
        assert tfrc.mean_bps > 0.3 * tcp.mean_bps
