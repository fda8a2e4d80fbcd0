"""Receiver-side ordered delivery with gap skipping.

Full reliability delivers strictly in order.  Partial modes cannot wait
forever for a hole the sender may have abandoned, so the buffer skips a
gap once it has aged past ``gap_timeout`` (a small multiple of the RTT
in practice), delivering subsequent data and recording the skip.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.packet import Packet


class DeliveryBuffer:
    """Reorders packets by transport sequence number for the application.

    Parameters
    ----------
    deliver:
        Callback invoked with each packet released in order.
    gap_timeout:
        Seconds to wait on a missing sequence number before skipping it
        (``None`` = wait forever, i.e. full reliability).
    """

    __slots__ = (
        "deliver", "gap_timeout", "next_seq", "_pending", "_gap_started",
        "delivered", "skipped", "duplicates",
    )

    def __init__(
        self,
        deliver: Callable[[Packet], None],
        gap_timeout: Optional[float] = None,
    ):
        if gap_timeout is not None and gap_timeout <= 0:
            raise ValueError("gap_timeout must be positive")
        self.deliver = deliver
        self.gap_timeout = gap_timeout
        self.next_seq = 0
        self._pending: Dict[int, Packet] = {}
        self._gap_started: Optional[float] = None
        self.delivered = 0
        self.skipped = 0
        self.duplicates = 0

    # ------------------------------------------------------------------
    def push(self, seq: int, packet: Packet, now: float) -> List[Packet]:
        """Insert an arrival; returns the packets released in order."""
        if seq < self.next_seq or seq in self._pending:
            self.duplicates += 1
            return []
        self._pending[seq] = packet
        released = self._drain(now)
        if self.waiting and self._gap_started is None:
            self._gap_started = now
        return released

    def advance(self, floor: int, now: float) -> List[Packet]:
        """Give up on every hole below ``floor`` (sender forward-ack).

        Buffered packets below the floor are delivered in order (holes
        between them are counted as skipped); then normal draining
        resumes from the floor.
        """
        released: List[Packet] = []
        while self.next_seq < floor:
            packet = self._pending.pop(self.next_seq, None)
            if packet is not None:
                self.delivered += 1
                released.append(packet)
                self.deliver(packet)
            else:
                self.skipped += 1
            self.next_seq += 1
        if released or self.next_seq >= floor:
            self._gap_started = None
        released.extend(self._drain(now))
        return released

    def poll(self, now: float) -> List[Packet]:
        """Timer hook: release data past any expired gap."""
        released = self._maybe_skip(now)
        if self.waiting and self._gap_started is None:
            self._gap_started = now
        return released

    def _drain(self, now: float) -> List[Packet]:
        released: List[Packet] = []
        while self.next_seq in self._pending:
            packet = self._pending.pop(self.next_seq)
            self.next_seq += 1
            self.delivered += 1
            self._gap_started = None
            released.append(packet)
            self.deliver(packet)
        released.extend(self._maybe_skip(now))
        return released

    def _maybe_skip(self, now: float) -> List[Packet]:
        if (
            self.gap_timeout is None
            or not self._pending
            or self._gap_started is None
            or now - self._gap_started < self.gap_timeout
        ):
            return []
        # skip the hole up to the next buffered packet
        next_buffered = min(self._pending)
        self.skipped += next_buffered - self.next_seq
        self.next_seq = next_buffered
        self._gap_started = None
        return self._drain(now)

    # ------------------------------------------------------------------
    @property
    def waiting(self) -> bool:
        """True while buffered data sits behind a hole."""
        return bool(self._pending)

    @property
    def buffered(self) -> int:
        """Number of packets held back by reordering."""
        return len(self._pending)
