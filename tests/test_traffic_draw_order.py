"""Literal draw-order pins for ``expand_population``.

The determinism goldens reach the expander only through
``flash_crowd`` + ``pareto`` and ``poisson``; these pins cover every
arrival kind x size kind, plus a two-class mix whose assured class
draws its endpoints without replacement.  Each pin is the first and
last three ``(flow_id, src, dst, start, size_bytes)`` rows and a hash
of all of them, so a change to the order or count of draws on any of
the four named streams (``arrivals``, ``classes``, ``sizes``,
``endpoints``) changes a literal below.  ``python
tests/test_traffic_draw_order.py`` prints the table for the current
source.
"""

import hashlib

import pytest

from repro.topo.generators import access_star_endpoints
from repro.traffic import (
    ArrivalSpec,
    FlowClassSpec,
    PopulationSpec,
    SizeSpec,
    expand_population,
)

SEED = 7
EDGE_ROWS = 3

ARRIVALS = {
    "poisson": ArrivalSpec(kind="poisson", rate_per_s=40.0),
    "onoff": ArrivalSpec(
        kind="onoff", rate_per_s=120.0, mean_on=0.4, mean_off=0.6
    ),
    "flash_crowd": ArrivalSpec(
        kind="flash_crowd",
        base_rate_per_s=5.0,
        peak_rate_per_s=150.0,
        ramp_start=1.0,
        ramp_duration=2.0,
    ),
}
SIZES = {
    "fixed": SizeSpec(kind="fixed", size_bytes=30_000),
    "exponential": SizeSpec(
        kind="exponential", mean_bytes=20_000.0, min_bytes=500
    ),
    "pareto": SizeSpec(
        kind="pareto", alpha=1.3, min_bytes=4_000, max_bytes=120_000
    ),
}


def _cases():
    cases = {
        f"{arrival}-{size}": PopulationSpec(
            name="pin",
            arrival=ARRIVALS[arrival],
            classes=(FlowClassSpec("flow", 1.0, "tcp", SIZES[size]),),
            endpoints=access_star_endpoints(12),
            n_flows=400,
            horizon=6.0,
            start=0.5,
        )
        for arrival in ARRIVALS
        for size in SIZES
    }
    cases["two-class-assured"] = PopulationSpec(
        name="pin",
        arrival=ARRIVALS["poisson"],
        classes=(
            FlowClassSpec("mice", 0.9, "tcp", SIZES["pareto"]),
            FlowClassSpec(
                "elephant", 0.1, "gtfrc", SIZES["fixed"], target_bps=2e6
            ),
        ),
        endpoints=access_star_endpoints(40),
        n_flows=150,
        horizon=6.0,
    )
    return cases


def _fingerprint(population):
    rows = [
        (f.flow_id, f.src, f.dst, f.start, f.size_bytes)
        for f in expand_population(population, SEED)
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return len(rows), rows[:EDGE_ROWS], rows[-EDGE_ROWS:], digest


# generated from the commit before the expander's hot loops were
# rewritten (PR 12); regenerate only with a deliberate draw-order change
PINS = {'flash_crowd-exponential': (400,
                             [('flow0', 'h3', 'srv', 0.644285406311206, 64100),
                              ('flow1',
                               'h2',
                               'srv',
                               0.7827180578192255,
                               23844),
                              ('flow2',
                               'h10',
                               'srv',
                               0.8111613363614142,
                               5783)],
                             [('flow397',
                               'h6',
                               'srv',
                               5.135677164102322,
                               2559),
                              ('flow398',
                               'h5',
                               'srv',
                               5.144273689076002,
                               13690),
                              ('flow399',
                               'h0',
                               'srv',
                               5.15558301277416,
                               1476)],
                             'c41ced112bdaa8fa'),
 'flash_crowd-fixed': (400,
                       [('flow0', 'h3', 'srv', 0.644285406311206, 30000),
                        ('flow1', 'h2', 'srv', 0.7827180578192255, 30000),
                        ('flow2', 'h10', 'srv', 0.8111613363614142, 30000)],
                       [('flow397', 'h6', 'srv', 5.135677164102322, 30000),
                        ('flow398', 'h5', 'srv', 5.144273689076002, 30000),
                        ('flow399', 'h0', 'srv', 5.15558301277416, 30000)],
                       '84c5ab713b59da99'),
 'flash_crowd-pareto': (400,
                        [('flow0', 'h3', 'srv', 0.644285406311206, 47072),
                         ('flow1', 'h2', 'srv', 0.7827180578192255, 10007),
                         ('flow2', 'h10', 'srv', 0.8111613363614142, 4996)],
                        [('flow397', 'h6', 'srv', 5.135677164102322, 4413),
                         ('flow398', 'h5', 'srv', 5.144273689076002, 6772),
                         ('flow399', 'h0', 'srv', 5.15558301277416, 4233)],
                        '7cffe76aae51b0b1'),
 'onoff-exponential': (294,
                       [('flow0', 'h3', 'srv', 0.5085524417060489, 64100),
                        ('flow1', 'h2', 'srv', 0.5156360439466362, 23844),
                        ('flow2', 'h10', 'srv', 0.5533473783416211, 5783)],
                       [('flow291', 'h4', 'srv', 6.1568042251362245, 8893),
                        ('flow292', 'h10', 'srv', 6.296363932499604, 4581),
                        ('flow293', 'h1', 'srv', 6.296998670279886, 10723)],
                       'ef67930349907ae1'),
 'onoff-fixed': (294,
                 [('flow0', 'h3', 'srv', 0.5085524417060489, 30000),
                  ('flow1', 'h2', 'srv', 0.5156360439466362, 30000),
                  ('flow2', 'h10', 'srv', 0.5533473783416211, 30000)],
                 [('flow291', 'h4', 'srv', 6.1568042251362245, 30000),
                  ('flow292', 'h10', 'srv', 6.296363932499604, 30000),
                  ('flow293', 'h1', 'srv', 6.296998670279886, 30000)],
                 'dbf0a4c477b8526a'),
 'onoff-pareto': (294,
                  [('flow0', 'h3', 'srv', 0.5085524417060489, 47072),
                   ('flow1', 'h2', 'srv', 0.5156360439466362, 10007),
                   ('flow2', 'h10', 'srv', 0.5533473783416211, 4996)],
                  [('flow291', 'h4', 'srv', 6.1568042251362245, 5631),
                   ('flow292', 'h10', 'srv', 6.296363932499604, 4770),
                   ('flow293', 'h1', 'srv', 6.296998670279886, 6041)],
                  '2d1ff11a9135acb0'),
 'poisson-exponential': (269,
                         [('flow0', 'h3', 'srv', 0.5252381968726121, 64100),
                          ('flow1', 'h2', 'srv', 0.5508955219907586, 23844),
                          ('flow2', 'h10', 'srv', 0.5721463287125207, 5783)],
                         [('flow266', 'h10', 'srv', 6.435374129955508, 4688),
                          ('flow267', 'h8', 'srv', 6.454816059148097, 13811),
                          ('flow268', 'h9', 'srv', 6.484977788241889, 15836)],
                         '5ba270e161802019'),
 'poisson-fixed': (269,
                   [('flow0', 'h3', 'srv', 0.5252381968726121, 30000),
                    ('flow1', 'h2', 'srv', 0.5508955219907586, 30000),
                    ('flow2', 'h10', 'srv', 0.5721463287125207, 30000)],
                   [('flow266', 'h10', 'srv', 6.435374129955508, 30000),
                    ('flow267', 'h8', 'srv', 6.454816059148097, 30000),
                    ('flow268', 'h9', 'srv', 6.484977788241889, 30000)],
                   '64acffc3601b009c'),
 'poisson-pareto': (269,
                    [('flow0', 'h3', 'srv', 0.5252381968726121, 47072),
                     ('flow1', 'h2', 'srv', 0.5508955219907586, 10007),
                     ('flow2', 'h10', 'srv', 0.5721463287125207, 4996)],
                    [('flow266', 'h10', 'srv', 6.435374129955508, 4790),
                     ('flow267', 'h8', 'srv', 6.454816059148097, 6803),
                     ('flow268', 'h9', 'srv', 6.484977788241889, 7355)],
                    '8ef6931708d0c8bf'),
 'two-class-assured': (150,
                       [('mice0', 'h12', 'srv', 0.025238196872612056, 47072),
                        ('mice1', 'h8', 'srv', 0.050895521990758655, 10007),
                        ('mice2', 'h24', 'srv', 0.07214632871252066, 4996)],
                       [('mice147', 'h22', 'srv', 3.329439828245677, 19424),
                        ('mice148', 'h38', 'srv', 3.3560750590171042, 4871),
                        ('mice149', 'h26', 'srv', 3.359647025554421, 22090)],
                       '1f05bdbdcb538ae7')}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_expansion_matches_pinned_draws(case):
    assert _fingerprint(_cases()[case]) == PINS[case]


def test_assured_class_draws_distinct_endpoints():
    # the pin above only means something if the case really exercises
    # the without-replacement pool
    flows = expand_population(_cases()["two-class-assured"], SEED)
    assured = [(f.src, f.dst) for f in flows if f.transport == "gtfrc"]
    assert len(assured) > 3
    assert len(set(assured)) == len(assured)


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {case: _fingerprint(pop) for case, pop in _cases().items()},
        width=88,
        sort_dicts=True,
    )
