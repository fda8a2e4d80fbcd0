"""Deterministic processing/memory cost accounting.

The paper's QTPlight claim is about the *asymptotic per-packet work*
done by a resource-limited receiver: the RFC 3448 receiver maintains the
loss-event history and recomputes the weighted average loss interval,
while the QTPlight receiver only updates a SACK interval set.

Wall-clock timing of a Python model would mostly measure interpreter
overhead, so components charge *abstract operations* and *resident
bytes* to a :class:`CostMeter`; the experiment then compares meters.
Charged constants approximate the work a C implementation would do
(one op ≈ one word-sized update or comparison), and the same code paths
are also wall-clock benchmarked (``benchmarks/test_t3_receiver_load.py``)
to confirm the ordering.
"""

from __future__ import annotations


class CostMeter:
    """Accumulates abstract operation counts and resident-memory bytes.

    Attributes
    ----------
    ops: total charged operations.
    events: number of charge() calls (≈ per-packet activations).
    resident_bytes: currently allocated model bytes.
    peak_bytes: high-water mark of ``resident_bytes``.
    """

    __slots__ = ("name", "ops", "events", "resident_bytes", "peak_bytes")

    def __init__(self, name: str = ""):
        self.name = name
        self.ops = 0
        self.events = 0
        self.resident_bytes = 0
        self.peak_bytes = 0

    # -- CPU --------------------------------------------------------------
    def charge(self, ops: int = 1) -> None:
        """Charge ``ops`` abstract operations."""
        self.ops += ops
        self.events += 1

    def ops_per_event(self) -> float:
        """Average operations per activation (0.0 before any)."""
        return self.ops / self.events if self.events else 0.0

    # -- memory -----------------------------------------------------------
    def alloc(self, nbytes: int) -> None:
        """Account an allocation of model state."""
        self.resident_bytes += nbytes
        if self.resident_bytes > self.peak_bytes:
            self.peak_bytes = self.resident_bytes

    def free(self, nbytes: int) -> None:
        """Account a release of model state (floored at zero)."""
        self.resident_bytes = max(0, self.resident_bytes - nbytes)

    def set_resident(self, nbytes: int) -> None:
        """Set the resident size directly (for size-recomputed structures)."""
        self.resident_bytes = nbytes
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes

    def reset(self) -> None:
        """Zero all counters."""
        self.ops = 0
        self.events = 0
        self.resident_bytes = 0
        self.peak_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostMeter({self.name!r}, ops={self.ops}, events={self.events}, "
            f"peak={self.peak_bytes}B)"
        )


class NullMeter(CostMeter):
    """A meter that ignores charges (default when accounting is off)."""

    __slots__ = ()

    def charge(self, ops: int = 1) -> None:  # noqa: D102 - see base
        pass

    def alloc(self, nbytes: int) -> None:  # noqa: D102 - see base
        pass

    def free(self, nbytes: int) -> None:  # noqa: D102 - see base
        pass

    def set_resident(self, nbytes: int) -> None:  # noqa: D102 - see base
        pass
