"""TFRC — TCP-Friendly Rate Control per RFC 3448, plus gTFRC.

Pure state machines; the simulator agents that drive them are the
profile-composed endpoints of :mod:`repro.core` (stock TFRC is the
:data:`~repro.core.instances.TFRC_MEDIA` profile):

* :mod:`repro.tfrc.equation` — the TCP throughput equation (§3.1);
* :mod:`repro.tfrc.rtt` — RTT/RTO estimation (§4.3);
* :mod:`repro.tfrc.loss_history` — loss-event detection and the
  weighted-average loss interval (§5), usable on either endpoint
  (receiver-side as in the RFC, or sender-side as in QTPlight);
* :mod:`repro.tfrc.rate_control` — the sender rate state machine (§4);
* :mod:`repro.tfrc.gtfrc` — the QoS-aware guaranteed-rate extension
  used by QTPAF (§4 of the paper; Lochin et al. IETF draft).
"""

from repro.tfrc.equation import tcp_throughput, solve_loss_rate
from repro.tfrc.loss_history import LossEventEstimator, LossIntervalHistory
from repro.tfrc.rate_control import TfrcRateController
from repro.tfrc.rtt import RttEstimator
from repro.tfrc.gtfrc import GtfrcRateController

__all__ = [
    "tcp_throughput",
    "solve_loss_rate",
    "LossIntervalHistory",
    "LossEventEstimator",
    "RttEstimator",
    "TfrcRateController",
    "GtfrcRateController",
]
