"""Service-level agreements and admission control.

The paper's QTPAF negotiates a minimum bandwidth with a DiffServ/AF
network service (the EuQoS NRT class).  This module provides the
network-side objects of that negotiation:

* :class:`ServiceLevelAgreement` — one flow's committed rate and burst;
* :class:`AdmissionController` — accepts or rejects SLAs against a
  provisioning budget and manufactures the matching edge meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.metrics.stats import fold_sum
from repro.qos.meters import SrTcmMeter


class AdmissionError(Exception):
    """SLA request rejected (over-subscription or duplicate flow)."""


@dataclass(frozen=True)
class ServiceLevelAgreement:
    """A negotiated assurance for one flow.

    Attributes
    ----------
    flow_id: transport flow the SLA covers.
    committed_rate_bps: the guaranteed (in-profile) rate ``g`` that
        gTFRC will use as its sending-rate floor.
    burst_bytes: committed burst size for the edge meter.
    excess_burst_bytes: optional EBS (yellow band).
    af_class: cosmetic AF class label (e.g. "AF1x").
    """

    flow_id: str
    committed_rate_bps: float
    burst_bytes: float = 15_000.0
    excess_burst_bytes: float = 0.0
    af_class: str = "AF1x"

    def __post_init__(self) -> None:
        if self.committed_rate_bps <= 0:
            raise ValueError("committed rate must be positive")
        if self.burst_bytes <= 0:
            raise ValueError("burst must be positive")

    def build_meter(self) -> SrTcmMeter:
        """Create the srTCM edge meter enforcing this SLA."""
        return SrTcmMeter(
            self.committed_rate_bps, self.burst_bytes, self.excess_burst_bytes
        )


class AdmissionController:
    """Tracks committed bandwidth against a link budget.

    Parameters
    ----------
    capacity_bps:
        Bottleneck capacity being provisioned.
    overprovision_factor:
        Fraction of capacity that may be committed (< 1 leaves headroom
        for the AF assurance to actually hold; the Seddigh experiments
        show the assurance failing as this approaches 1).
    """

    def __init__(self, capacity_bps: float, overprovision_factor: float = 0.9):
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < overprovision_factor <= 1.5:
            raise ValueError("overprovision factor out of sane range")
        self.capacity_bps = capacity_bps
        self.overprovision_factor = overprovision_factor
        self.slas: Dict[str, ServiceLevelAgreement] = {}

    @property
    def committed_bps(self) -> float:
        """Sum of currently admitted committed rates."""
        return fold_sum(s.committed_rate_bps for s in self.slas.values())

    @property
    def budget_bps(self) -> float:
        """Total commitable bandwidth."""
        return self.capacity_bps * self.overprovision_factor

    def admit(self, sla: ServiceLevelAgreement) -> ServiceLevelAgreement:
        """Admit an SLA or raise :class:`AdmissionError`."""
        if sla.flow_id in self.slas:
            raise AdmissionError(f"flow {sla.flow_id!r} already has an SLA")
        if self.committed_bps + sla.committed_rate_bps > self.budget_bps:
            raise AdmissionError(
                f"cannot admit {sla.committed_rate_bps / 1e6:.2f} Mbit/s: "
                f"{(self.budget_bps - self.committed_bps) / 1e6:.2f} Mbit/s left"
            )
        self.slas[sla.flow_id] = sla
        return sla

    def release(self, flow_id: str) -> None:
        """Release a flow's reservation; unknown flows are ignored."""
        self.slas.pop(flow_id, None)

    def sla_for(self, flow_id: str) -> ServiceLevelAgreement:
        """Look up an admitted SLA; raises KeyError when absent."""
        return self.slas[flow_id]
