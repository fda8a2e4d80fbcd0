"""Network emulation channels: loss, burst loss, jitter, reordering.

Channels implement the :class:`repro.sim.link.Channel` protocol — given
a packet at serialization end, they return the extra delay to apply or
``None`` to drop the packet.  They model the *non-congestion* path
impairments (wireless fading, interference) that motivate the paper's
claim that rate-based congestion control outperforms TCP on lossy paths.
"""

from repro.netem.channels import (
    BernoulliLossChannel,
    CompositeChannel,
    GilbertElliottChannel,
    JitterChannel,
)

__all__ = [
    "BernoulliLossChannel",
    "GilbertElliottChannel",
    "JitterChannel",
    "CompositeChannel",
]
