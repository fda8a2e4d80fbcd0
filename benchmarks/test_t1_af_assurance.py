"""T1 — AF bandwidth assurance (paper §4).

Regenerates the paper's central comparison: an assured flow with an AF
reservation ``g`` against 8 greedy best-effort TCP flows on a 10 Mbit/s
RIO bottleneck (assured-flow RTT ≈ 240 ms, the regime where the
Seddigh-style TCP failure appears).  Expected shape: TCP's
achieved/target ratio well below 1 and falling as ``g`` grows; plain
TFRC in between; gTFRC and QTPAF pinned at ≈ 1.0 with zero in-profile
drops.

Driven by the :mod:`repro.api` front door: the sweep is an
:class:`~repro.api.Experiment`, lookups go through
:meth:`~repro.api.ResultSet.one` — the committed table is byte-identical
to the ``run_matrix`` version this replaced.
"""

import pytest

from conftest import SWEEP_CACHE, emit_table, sweep_workers
from repro.api import Experiment
from repro.harness.tables import format_table

pytestmark = pytest.mark.slow

PROTOCOLS = ("tcp", "tfrc", "gtfrc", "qtpaf")
TARGETS = (2e6, 4e6, 6e6, 8e6)
CONFIG = dict(n_cross=8, assured_access_delay=0.1, duration=40.0, warmup=10.0, seed=3)


@pytest.fixture(scope="module")
def sweep():
    return (
        Experiment("af_assurance")
        .sweep(target_bps=TARGETS, protocol=PROTOCOLS)
        .configure(**CONFIG)
        .workers(sweep_workers())
        .cache(SWEEP_CACHE)
        .run()
    )


def test_t1_table(sweep):
    rows = []
    for target in TARGETS:
        for proto in PROTOCOLS:
            r = sweep.one(target_bps=target, protocol=proto)
            rows.append(
                [
                    f"{target / 1e6:.0f}",
                    proto,
                    r.achieved_bps / 1e6,
                    r.ratio,
                    r.green_drop_ratio,
                    r.out_drop_ratio,
                    r.cross_total_bps / 1e6,
                ]
            )
    emit_table(
        "t1_af_assurance",
        format_table(
            ["g (Mb/s)", "protocol", "achieved (Mb/s)", "ratio",
             "green drop", "out drop", "cross (Mb/s)"],
            rows,
            title="T1: AF bandwidth assurance "
                  "(10 Mb/s RIO, 8 TCP cross, assured RTT ~240 ms)",
        ),
    )


def test_t1_tcp_fails_increasingly(sweep):
    ratios = [sweep.value("ratio", target_bps=t, protocol="tcp") for t in TARGETS]
    assert ratios[-1] < 0.8
    assert ratios[-1] < ratios[0]


def test_t1_qtpaf_holds_every_target(sweep):
    for target in TARGETS:
        assert sweep.value("ratio", target_bps=target, protocol="qtpaf") >= 0.9, target


def test_t1_ordering_tcp_tfrc_gtfrc(sweep):
    for target in TARGETS[2:]:  # the discriminating high-target cells
        tcp = sweep.value("ratio", target_bps=target, protocol="tcp")
        tfrc = sweep.value("ratio", target_bps=target, protocol="tfrc")
        qtpaf = sweep.value("ratio", target_bps=target, protocol="qtpaf")
        assert tcp < qtpaf and tfrc < qtpaf
