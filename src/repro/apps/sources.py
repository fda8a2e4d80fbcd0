"""The media source that feeds a media-limited QTP sender.

:class:`MediaSource` schedules its own frames on the simulator and
enqueues :class:`~repro.sim.packet.AppDataHeader`-tagged messages into
the sender.  It is started with :meth:`MediaSource.start` and stopped
with :meth:`MediaSource.stop`.
"""

from __future__ import annotations

from repro.core.sender import QtpSender
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.sim.packet import AppDataHeader


class MediaSource:
    """MPEG-like frame source with I/P/B frame types and deadlines.

    A group of pictures (GoP) cycles ``I B B P B B P B B P B B`` at
    ``fps`` frames per second.  Frame sizes differ by type (I largest);
    each frame is fragmented into segment-size messages that inherit the
    frame's playout deadline ``now + playout_delay``.

    This is the workload of the paper's motivation: a streaming server
    feeding mobile clients, where late frames are worthless and key (I)
    frames matter most.
    """

    GOP = "IBBPBBPBBPBB"

    def __init__(
        self,
        sim: Simulator,
        sender: QtpSender,
        fps: float = 25.0,
        i_size: int = 6000,
        p_size: int = 3000,
        b_size: int = 1500,
        playout_delay: float = 0.4,
    ):
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.sim = sim
        self.sender = sender
        self._running = False
        self._event = None
        self.messages = 0
        self.fps = fps
        self.sizes = {"I": i_size, "P": p_size, "B": b_size}
        self.playout_delay = playout_delay
        self.frames = 0

    def start(self) -> None:
        """Begin generating frames (also starts the sender)."""
        if self._running:
            return
        self._running = True
        self.sender.start()
        self._schedule_next(first=True)

    def stop(self) -> None:
        """Stop generating (the sender keeps draining its queue)."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def mean_rate_bps(self) -> float:
        """Long-run average source rate implied by the GoP structure."""
        gop_bytes = fold_sum(self.sizes[t] for t in self.GOP)
        return gop_bytes * 8 * self.fps / len(self.GOP)

    def _schedule_next(self, first: bool = False) -> None:
        if not self._running:
            return
        delay = 0.0 if first else 1.0 / self.fps
        self._event = self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        frame_type = self.GOP[self.frames % len(self.GOP)]
        size = self.sizes[frame_type]
        segment = self.sender.profile.segment_size
        deadline = self.sim.now + self.playout_delay
        fragments = max(1, (size + segment - 1) // segment)
        for _ in range(fragments):
            app = AppDataHeader(
                app_seq=self.messages, frame_type=frame_type, deadline=deadline
            )
            self.sender.enqueue_message(app)
            self.messages += 1
        self.frames += 1
        self._schedule_next()


__all__ = ["MediaSource"]
