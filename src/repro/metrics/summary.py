"""One-call flow summaries for experiments and examples.

:func:`summarize_flow` condenses a recorder (and optional cost meter)
into the handful of numbers the paper's evaluation tables report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.cost import CostMeter
from repro.metrics.recorder import FlowRecorder, warmup_bins
from repro.metrics.stats import coefficient_of_variation, percentile


@dataclass(frozen=True)
class FlowSummary:
    """Headline metrics of one flow over a measurement window."""

    name: str
    mean_rate_bps: float
    smoothness_cov: float
    delivered_packets: int
    delivered_bytes: int
    mean_latency: float
    p95_latency: float
    rx_ops_per_packet: float
    rx_peak_bytes: int

    def describe(self) -> str:
        """One line for logs: rate, smoothness, latency."""
        return (
            f"{self.name}: {self.mean_rate_bps / 1e6:.2f} Mbit/s "
            f"(CoV {self.smoothness_cov:.3f}), "
            f"lat p95 {self.p95_latency * 1e3:.1f} ms, "
            f"{self.delivered_packets} pkts"
        )


def summarize_flow(
    recorder: FlowRecorder,
    warmup: float,
    end: float,
    bin_width: float = 0.5,
    meter: Optional[CostMeter] = None,
) -> FlowSummary:
    """Summarize one flow over ``(warmup, end]``.

    Parameters
    ----------
    recorder: the flow's delivery recorder.
    warmup: seconds excluded from the front of the run.
    end: end of the measurement window.
    bin_width: bucket size for the smoothness (CoV) series.
    meter: optional receiver cost meter for the load columns.
    """
    if end <= warmup:
        raise ValueError("end must be after warmup")
    series = recorder.series(bin_width, end=end)
    steady = series[warmup_bins(warmup, bin_width):]
    # events/latencies are O(n) materialized views: take them once and
    # fold the window in a single pass
    events = recorder.events
    latencies = recorder.latencies
    window_latencies = [
        lat for (t, _), lat in zip(events, latencies) if warmup < t <= end
    ]
    packets = 0
    nbytes = 0
    for t, size in events:
        if warmup < t <= end:
            packets += 1
            nbytes += size
    return FlowSummary(
        name=recorder.name,
        mean_rate_bps=recorder.mean_rate_bps(warmup, end),
        smoothness_cov=coefficient_of_variation(steady),
        delivered_packets=packets,
        delivered_bytes=nbytes,
        mean_latency=(
            sum(window_latencies) / len(window_latencies)
            if window_latencies
            else 0.0
        ),
        p95_latency=percentile(window_latencies, 95) if window_latencies else 0.0,
        rx_ops_per_packet=(
            meter.ops / max(1, packets) if meter is not None else 0.0
        ),
        rx_peak_bytes=meter.peak_bytes if meter is not None else 0,
    )
