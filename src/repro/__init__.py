"""Reproduction of *Towards a Versatile Transport Protocol* (CoNEXT 2006).

This package implements, from scratch, the composable transport protocol
framework sketched by Jourjon, Lochin and Sénac, together with every
substrate it depends on:

* a deterministic discrete-event network simulator (:mod:`repro.sim`),
* DiffServ/AF QoS machinery — token-bucket meters, markers and RIO
  queues (:mod:`repro.qos`),
* loss/jitter channel emulation (:mod:`repro.netem`),
* TFRC congestion control per RFC 3448 and its gTFRC QoS-aware
  extension (:mod:`repro.tfrc`),
* selective acknowledgments per RFC 2018 (:mod:`repro.sack`) and the
  reliability services built on them (:mod:`repro.reliability`),
* a TCP Reno/NewReno baseline (:mod:`repro.tcp`),
* the versatile-transport composition framework with the two paper
  instances, QTPAF and QTPlight (:mod:`repro.core`),
* application traffic models (:mod:`repro.apps`), measurement utilities
  (:mod:`repro.metrics`), declarative topology/scenario specs
  (:mod:`repro.topo`) and an experiment harness (:mod:`repro.harness`).

:mod:`repro.api` (``Experiment`` / ``ResultSet``) is the unified front
door for defining, running and analyzing experiment sweeps; the
simulator-level surface re-exported here is the stable substrate the
examples and benchmarks build on; networks are compiled from
:mod:`repro.topo` specs (:func:`repro.topo.build`).
"""

from repro.core.instances import (
    QTPAF,
    QTPLIGHT,
    TCP_LIKE,
    TFRC_MEDIA,
    build_transport_pair,
)
from repro.core.profile import (
    CongestionControl,
    LossEstimationSite,
    ReliabilityMode,
    TransportProfile,
)
from repro.sim.engine import Simulator

__all__ = [
    "Simulator",
    "TransportProfile",
    "CongestionControl",
    "ReliabilityMode",
    "LossEstimationSite",
    "QTPAF",
    "QTPLIGHT",
    "TFRC_MEDIA",
    "TCP_LIKE",
    "build_transport_pair",
]

__version__ = "1.0.0"
