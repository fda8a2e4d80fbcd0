"""Traffic sources that feed a media-limited QTP sender.

Each source schedules its own arrivals on the simulator and enqueues
:class:`~repro.sim.packet.AppDataHeader`-tagged messages into the
sender.  Sources are started with :meth:`start` and stopped with
:meth:`stop`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.sender import QtpSender
from repro.metrics.stats import fold_sum
from repro.sim.engine import Simulator
from repro.sim.packet import AppDataHeader


class _BaseSource:
    """Common scheduling scaffolding for sources."""

    def __init__(self, sim: Simulator, sender: QtpSender):
        self.sim = sim
        self.sender = sender
        self._running = False
        self._event = None
        self.messages = 0

    def start(self) -> None:
        """Begin generating traffic (also starts the sender)."""
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

    def _schedule_next(self, first: bool = False) -> None:
        raise NotImplementedError

    def _emit(self, frame_type: str = "", lifetime: Optional[float] = None) -> None:
        deadline = self.sim.now + lifetime if lifetime is not None else None
        app = AppDataHeader(
            app_seq=self.messages, frame_type=frame_type, deadline=deadline
        )
        self.sender.enqueue_message(app)
        self.messages += 1


class CbrSource(_BaseSource):
    """Constant-bit-rate datagrams.

    Parameters
    ----------
    rate_bps: application rate in bits/s.
    lifetime: optional per-message usefulness window (seconds), used by
        time-bounded partial reliability.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: QtpSender,
        rate_bps: float,
        lifetime: Optional[float] = None,
    ):
        super().__init__(sim, sender)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.interval = sender.profile.segment_size * 8 / rate_bps
        self.lifetime = lifetime

    def _schedule_next(self, first: bool = False) -> None:
        if not self._running:
            return
        delay = 0.0 if first else self.interval
        self._event = self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        self._emit(lifetime=self.lifetime)
        self._schedule_next()


class PoissonSource(_BaseSource):
    """Poisson message arrivals at a given mean rate."""

    def __init__(
        self,
        sim: Simulator,
        sender: QtpSender,
        rate_bps: float,
        lifetime: Optional[float] = None,
        rng_name: str = "poisson-source",
    ):
        super().__init__(sim, sender)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.mean_interval = sender.profile.segment_size * 8 / rate_bps
        self.lifetime = lifetime
        self._rng = sim.rng(rng_name)

    def _schedule_next(self, first: bool = False) -> None:
        if not self._running:
            return
        delay = 0.0 if first else self._rng.expovariate(1.0 / self.mean_interval)
        self._event = self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        self._emit(lifetime=self.lifetime)
        self._schedule_next()


class OnOffSource(_BaseSource):
    """Exponential ON/OFF CBR bursts (classic cross-traffic model)."""

    def __init__(
        self,
        sim: Simulator,
        sender: QtpSender,
        rate_bps: float,
        mean_on: float = 1.0,
        mean_off: float = 1.0,
        rng_name: str = "onoff-source",
    ):
        super().__init__(sim, sender)
        if rate_bps <= 0 or mean_on <= 0 or mean_off <= 0:
            raise ValueError("rate and periods must be positive")
        self.interval = sender.profile.segment_size * 8 / rate_bps
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = sim.rng(rng_name)
        self._on_until = 0.0

    def _schedule_next(self, first: bool = False) -> None:
        if not self._running:
            return
        if first:
            self._on_until = self.sim.now + self._rng.expovariate(1.0 / self.mean_on)
            self._event = self.sim.schedule(0.0, self._fire)
            return
        if self.sim.now < self._on_until:
            self._event = self.sim.schedule(self.interval, self._fire)
        else:
            off = self._rng.expovariate(1.0 / self.mean_off)
            self._event = self.sim.schedule(off, self._restart_burst)

    def _restart_burst(self) -> None:
        if not self._running:
            return
        self._on_until = self.sim.now + self._rng.expovariate(1.0 / self.mean_on)
        self._fire()

    def _fire(self) -> None:
        self._emit()
        self._schedule_next()


class MediaSource(_BaseSource):
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
        super().__init__(sim, sender)
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.fps = fps
        self.sizes = {"I": i_size, "P": p_size, "B": b_size}
        self.playout_delay = playout_delay
        self.frames = 0

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


__all__ = ["CbrSource", "PoissonSource", "OnOffSource", "MediaSource"]
