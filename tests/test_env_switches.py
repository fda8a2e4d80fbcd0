"""Every boolean ``REPRO_*`` switch reads its value the same way.

Unset, empty and ``0`` are off, once surrounding whitespace is
stripped (:func:`repro.sim.engine.env_flag`); each case below reads a
switch through the code that acts on it, not through the parser.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.fluid import BackgroundLoadSpec
from repro.obs.profiling import profiling_requested
from repro.sim.engine import Simulator
from repro.sim.packet import pooling_enabled
from repro.topo import ScenarioSpec, build, chain_spec


def _built(background=None):
    shape = chain_spec(1, rate_bps=4e6, delay=0.01)
    link = replace(shape.links[0], background=background)
    shape = replace(shape, links=(link, *shape.links[1:]))
    return build(Simulator(seed=1), ScenarioSpec("switches", shape))


def _metrics_armed_at_import():
    done = subprocess.run(
        [sys.executable, "-c",
         "import repro.obs.metrics as m; print(m.metrics_enabled())"],
        env={**os.environ,
             "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout.strip() == "True"


#: switch -> is the behaviour it switches on in effect?
SWITCHED_ON = {
    "REPRO_NO_POOL": lambda: not pooling_enabled(),
    "REPRO_NO_FLUID": lambda: not _built(
        BackgroundLoadSpec(kind="constant", rate_bps=1e6)
    ).fluid_sources,
    "REPRO_TRACE": lambda: _built().tracer is not None,
    "REPRO_METRICS": _metrics_armed_at_import,
    "REPRO_PROFILE": profiling_requested,
}


@pytest.mark.parametrize("value", ["", "0", " 0 ", "1"])
@pytest.mark.parametrize("switch", sorted(SWITCHED_ON))
def test_boolean_switch_reads_empty_and_zero_as_off(
        switch, value, monkeypatch):
    for name in SWITCHED_ON:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(switch, value)
    assert SWITCHED_ON[switch]() is (value == "1")
