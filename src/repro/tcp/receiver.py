"""TCP receiver: cumulative ACKs with optional SACK blocks.

ACKs every data segment (ns-2 style; a delayed-ACK option is provided
for ablations).  Delivery to the recorder is per unique segment, which
measures goodput rather than wire throughput.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.recorder import FlowRecorder
from repro.sack.blocks import ReceiverSackState
from repro.sim.engine import Simulator, Timer
from repro.sim.node import Agent
from repro.sim.packet import Packet, PacketKind, PacketPool, TcpSegmentHeader
from repro.tcp.sender import ACK_SIZE

#: Delayed-ACK flush timeout (RFC 1122 allows up to 500 ms; 200 ms typical).
DELACK_TIMEOUT = 0.2


class TcpReceiver(Agent):
    """TCP receiver endpoint.

    Parameters
    ----------
    sim: simulator.
    recorder: optional delivery recorder (unique segments only).
    sack: include SACK blocks in ACKs (RFC 2018).
    delayed_ack: acknowledge every second segment (100 ms flush timer
        is not modelled; dup-triggering out-of-order segments are still
        ACKed immediately, per RFC 5681).
    """

    __slots__ = (
        "recorder", "sack", "delayed_ack", "sack_block_limit", "state",
        "_pool", "_peer", "_delack_pending", "_delack_timer",
        "_last_data_ts", "acks_sent", "received_segments",
    )

    def __init__(
        self,
        sim: Simulator,
        recorder: Optional[FlowRecorder] = None,
        sack: bool = False,
        delayed_ack: bool = False,
        sack_block_limit: int = 3,
    ):
        super().__init__(sim)
        self.recorder = recorder
        self.sack = sack
        self.delayed_ack = delayed_ack
        self.sack_block_limit = sack_block_limit
        self.state = ReceiverSackState()
        self._pool = PacketPool.of(sim)
        self._peer = ""
        self._delack_pending = 0
        self._delack_timer = Timer(sim, self._flush_delack)
        self._last_data_ts = 0.0
        self.acks_sent = 0
        self.received_segments = 0

    def receive(self, packet: Packet) -> None:
        """Handle an arriving data segment and emit an ACK."""
        header = packet.header
        if not isinstance(header, TcpSegmentHeader) or header.ack >= 0:
            return
        if not self._peer:
            self._peer = packet.src
        self.received_segments += 1
        in_order_before = self.state.cum_ack
        fresh = self.state.record(header.seq, packet.size)
        if fresh and self.recorder is not None:
            self.recorder.record(self.sim.now, packet)
        out_of_order = header.seq != in_order_before + 1
        timestamp = header.timestamp
        self._last_data_ts = timestamp
        if self._pool is not None:  # segment fully consumed: recycle
            self._pool.release(packet)
        if self.delayed_ack and not out_of_order:
            self._delack_pending += 1
            if self._delack_pending < 2:
                self._delack_timer.restart(DELACK_TIMEOUT)
                return
        self._delack_pending = 0
        self._delack_timer.stop()
        self._send_ack(timestamp)

    def _flush_delack(self) -> None:
        if self._delack_pending:
            self._delack_pending = 0
            self._send_ack(self._last_data_ts)

    def _send_ack(self, timestamp_echo: float) -> None:
        now = self.sim.now
        src = self.node.name if self.node else "?"
        blocks = (
            self.state.blocks(self.sack_block_limit) if self.sack else ()
        )
        size = ACK_SIZE + 8 * len(blocks)
        pool = self._pool
        packet = (
            pool.acquire(
                TcpSegmentHeader, src, self._peer, self.flow_id,
                size, PacketKind.ACK, now,
            )
            if pool is not None
            else None
        )
        if packet is not None:
            header = packet.header
            header.seq = -1
            header.payload = 0
            header.ack = self.state.cum_ack + 1
            header.syn = False
            header.fin = False
            header.sack_blocks = blocks
            header.timestamp = now
            header.timestamp_echo = timestamp_echo
        else:
            packet = Packet(
                src=src,
                dst=self._peer,
                flow_id=self.flow_id,
                size=size,
                kind=PacketKind.ACK,
                header=TcpSegmentHeader(
                    seq=-1,
                    payload=0,
                    ack=self.state.cum_ack + 1,
                    sack_blocks=blocks,
                    timestamp=now,
                    timestamp_echo=timestamp_echo,
                ),
                created_at=now,
            )
            if pool is not None:
                packet.pooled = True
        self.acks_sent += 1
        self.send(packet)
