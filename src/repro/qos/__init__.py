"""DiffServ / Assured Forwarding QoS substrate (the paper's §4 context).

Provides the EuQoS-like AF class machinery the paper assumes:

* the token-bucket meter :class:`SrTcmMeter` (RFC 2697);
* edge markers that color packets against a flow's traffic profile;
* :class:`ServiceLevelAgreement` plus :class:`AdmissionController` for
  bandwidth negotiation between applications and the network;
* the RIO queue that implements the AF PHB lives in
  :mod:`repro.sim.queues` (:class:`~repro.sim.queues.RioQueue`).
"""

from repro.qos.meters import SrTcmMeter
from repro.qos.marking import BestEffortMarker, ProfileMarker
from repro.qos.sla import AdmissionController, AdmissionError, ServiceLevelAgreement

__all__ = [
    "SrTcmMeter",
    "ProfileMarker",
    "BestEffortMarker",
    "ServiceLevelAgreement",
    "AdmissionController",
    "AdmissionError",
]
