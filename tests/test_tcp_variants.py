"""Variant and edge-case tests for the TCP baseline."""

import pytest

from repro.metrics.recorder import FlowRecorder
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.tfrc.rtt import RtoEstimator
from repro.topo import (
    ChannelSpec,
    QueueSpec,
    ScenarioSpec,
    build,
    chain_spec,
    dumbbell_spec,
)


def lossy_run(seed=5, loss=0.03, duration=30, **sender_kw):
    sim = Simulator(seed=seed)
    lossy = ChannelSpec(kind="bernoulli", loss_rate=loss, rng_stream="l")
    shape = chain_spec(1, rate_bps=4e6, delay=0.02, channel=lossy)
    net = build(sim, ScenarioSpec("t", shape)).net
    rec = FlowRecorder()
    snd = TcpSender(sim, dst="h1", **sender_kw).attach(net.node("h0"), "f")
    rcv = TcpReceiver(sim, recorder=rec, sack=sender_kw.get("sack", False)).attach(
        net.node("h1"), "f"
    )
    snd.start()
    sim.run(until=duration)
    return snd, rcv, rec


class TestVariants:
    def test_reno_without_newreno_survives(self):
        snd, _, rec = lossy_run(newreno=False, loss=0.02)
        assert rec.mean_rate_bps(5, 30) > 2e5
        assert snd.fast_retransmits > 0

    def test_newreno_at_least_as_good_as_reno(self):
        _, _, rec_reno = lossy_run(newreno=False, loss=0.03)
        _, _, rec_nr = lossy_run(newreno=True, loss=0.03)
        assert rec_nr.mean_rate_bps(5, 30) > 0.7 * rec_reno.mean_rate_bps(5, 30)

    def test_max_cwnd_clamps_rate(self):
        sim = Simulator(seed=1)
        shape = dumbbell_spec(
            1, bottleneck_bps=8e6, bottleneck_delay=0.05,
            bottleneck_queue=QueueSpec(capacity_packets=200),
        )
        d = build(sim, ScenarioSpec("t", shape))
        rec = FlowRecorder()
        snd = TcpSender(sim, dst="d0", max_cwnd=10.0).attach(d.net.node("s0"), "f")
        TcpReceiver(sim, recorder=rec).attach(d.net.node("d0"), "f")
        snd.start()
        sim.run(until=20)
        # rate ~ cwnd * mss / rtt = 10 * 1000B / ~0.11s
        expected = 10 * 1000 * 8 / 0.11
        assert rec.mean_rate_bps(5, 20) == pytest.approx(expected, rel=0.25)

    def test_no_deadlock_under_heavy_loss(self):
        """Regression: SACK + RTO rewind must never silence the sender."""
        snd, _, rec = lossy_run(sack=True, loss=0.15, duration=60, seed=0)
        # even at 15% loss the connection keeps making progress
        assert snd.snd_una > 100
        late = rec.series(5.0, end=60.0)[-4:]
        assert any(v > 0 for v in late)  # still alive near the end

    def test_stop_cancels_rto(self):
        snd, _, _ = lossy_run(loss=0.05, duration=5)
        snd.stop()
        assert not snd._rto_timer.armed


class _CountingRto(RtoEstimator):
    """An RTO estimator that counts the RTT samples it is given."""

    def __init__(self):
        super().__init__()
        self.samples = 0

    def update(self, sample):
        self.samples += 1
        super().update(sample)


class _KarnProbe(TcpSender):
    """A sender that logs, per timestamped new ACK, whether the segment
    it acknowledges had been retransmitted and whether an RTT sample was
    taken from it.  Retransmitted means resent by fast retransmit, by
    NewReno or SACK repair, or by an RTO (its resend of ``snd_una``)."""

    __slots__ = ("resent", "log")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rto = _CountingRto()
        self.resent = set()
        self.log = []

    def _retransmit(self, seq):
        self.resent.add(seq)
        super()._retransmit(seq)

    def _on_rto(self):
        timeouts = self.timeouts
        super()._on_rto()
        if self.timeouts > timeouts:
            self.resent.add(self.snd_una)

    def receive(self, packet):
        header = packet.header
        ack, una, samples = header.ack, self.snd_una, self.rto.samples
        super().receive(packet)
        if ack > una and header.timestamp_echo > 0:
            self.log.append((ack - 1 in self.resent, self.rto.samples > samples))


class TestKarn:
    def test_retransmitted_segments_skip_rtt_sampling(self):
        for sack in (False, True):
            sim = Simulator(seed=5)
            lossy = ChannelSpec(kind="bernoulli", loss_rate=0.05, rng_stream="l")
            shape = chain_spec(1, rate_bps=4e6, delay=0.02, channel=lossy)
            net = build(sim, ScenarioSpec("t", shape)).net
            snd = _KarnProbe(sim, dst="h1", sack=sack).attach(net.node("h0"), "f")
            TcpReceiver(sim, sack=sack).attach(net.node("h1"), "f")
            snd.start()
            sim.run(until=20)
            resent = [sampled for again, sampled in snd.log if again]
            fresh = [sampled for again, sampled in snd.log if not again]
            assert len(resent) >= 5  # retransmitted segments were acked ...
            assert not any(resent)  # ... and none gave an RTT sample
            assert sum(fresh) > 0.9 * len(fresh)  # the others did
            # a sane RTT estimate despite the retransmission ambiguity
            assert 0.03 < snd.rto.srtt < 1.0
