"""Per-flow endpoint state is compact and does not grow with a run.

A transport endpoint exists once per flow, and its timers, estimators
and scoreboard records once per flow or per outstanding segment, so
their size multiplies by the population (``churn_1000`` builds a
thousand pairs).  Two guards, both counts of bytes rather than timings:

* every per-flow class is slotted: none of the instances a run builds
  carries a ``__dict__`` (past 30 attributes CPython materialises a
  1.5 kB dict per instance);
* endpoints keep no per-packet history: with no recorder attached,
  what the process holds at 20 simulated seconds is within a fixed
  bound of what it held at 10.
"""

import gc
import tracemalloc

import pytest

from repro.core.connection import Initiator, Responder
from repro.core.instances import QTPLIGHT_RELIABLE, build_transport_pair
from repro.core.qtplight import SenderLossEstimator
from repro.core.receiver import QtpReceiver
from repro.core.sender import QtpSender
from repro.metrics.cost import CostMeter, NullMeter
from repro.reliability.delivery import DeliveryBuffer
from repro.sack.blocks import ReceiverSackState
from repro.sack.scoreboard import SenderScoreboard, SentRecord
from repro.sim.engine import Simulator, Timer
from repro.sim.node import Agent
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.tfrc.gtfrc import GtfrcRateController
from repro.tfrc.loss_history import LossEventEstimator, LossIntervalHistory
from repro.tfrc.rate_control import TfrcRateController
from repro.tfrc.rtt import RtoEstimator, RttEstimator
from repro.topo import QueueSpec, ScenarioSpec, build, dumbbell_spec
from repro.topo.specs import FlowSpec

#: Built by the scenario below, at least one instance each.
PER_FLOW = (
    TcpSender, TcpReceiver, QtpSender, QtpReceiver, Timer, RtoEstimator,
    RttEstimator, SenderScoreboard, SentRecord, ReceiverSackState,
    LossIntervalHistory, LossEventEstimator, TfrcRateController,
    GtfrcRateController, SenderLossEstimator, DeliveryBuffer, CostMeter,
    NullMeter,
)
#: Slotted too, but built only by a handshake or by a subclass.
SLOTTED_UNBUILT = (Agent, Initiator, Responder)

#: Growth allowed between 10 s and 20 s of the run below.  What still
#: moves is window-sized state: outstanding ``SentRecord``s, tombstoned
#: RTO events in the heap, queued packets — 1 to 18 kB over seeds 1-5
#: on 3.10 to 3.13.  Per-ACK and per-delivery logs added ~240 kB here.
GROWTH_BOUND = 48 * 1024


def run_population(sim):
    """Four flows of every transport kind plus a QTPlight pair, on a
    2 Mb/s dumbbell that drops; nothing records deliveries."""
    flows = (
        FlowSpec("reno", "s0", "d0", transport="tcp", sack=False, record=False),
        FlowSpec("sack", "s1", "d1", transport="tcp", record=False),
        FlowSpec("tfrc", "s2", "d2", transport="tfrc", record=False),
        FlowSpec("af", "s3", "d3", transport="qtpaf", target_bps=4e5,
                 record=False),
    )
    shape = dumbbell_spec(
        5, bottleneck_bps=2e6,
        bottleneck_queue=QueueSpec(capacity_packets=40),
    )
    built = build(sim, ScenarioSpec("footprint", shape, flows))
    net = built.net
    build_transport_pair(
        sim, net.node("s4"), net.node("d4"), "light", QTPLIGHT_RELIABLE,
        rx_meter=CostMeter("rx"), start=True,
    )
    return built


@pytest.fixture(scope="module")
def live_instances():
    sim = Simulator(seed=1)
    built = run_population(sim)
    sim.run(until=3.0)
    gc.collect()
    found = {cls: [] for cls in PER_FLOW}
    for obj in gc.get_objects():
        if type(obj) in found:
            found[type(obj)].append(obj)
    yield found
    del built


@pytest.mark.parametrize("cls", PER_FLOW, ids=lambda cls: cls.__name__)
def test_per_flow_instances_have_no_dict(live_instances, cls):
    instances = live_instances[cls]
    assert instances, f"the run built no {cls.__name__}"
    with_dict = [obj for obj in instances if hasattr(obj, "__dict__")]
    assert not with_dict, (
        f"{len(with_dict)} of {len(instances)} {cls.__name__} instances "
        f"carry a __dict__"
    )


@pytest.mark.parametrize("cls", SLOTTED_UNBUILT, ids=lambda cls: cls.__name__)
def test_agent_classes_are_slotted(cls):
    # 0: instances have no __dict__ (the base class is slotted as well)
    assert cls.__dictoffset__ == 0, f"{cls.__name__} instances carry a __dict__"


def test_endpoint_memory_does_not_grow_with_simulated_time():
    held = []
    tracemalloc.start()
    try:
        sim = Simulator(seed=1)
        built = run_population(sim)
        for until in (10.0, 20.0):
            sim.run(until=until)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    at_10, at_20 = held
    # every flow ran the whole time
    assert all(built.net.node(f"d{i}").rx_packets > 300 for i in range(5))
    assert at_20 - at_10 <= GROWTH_BOUND, (
        f"held {at_10} B at 10 s and {at_20} B at 20 s "
        f"(+{at_20 - at_10} B, bound {GROWTH_BOUND} B)"
    )
