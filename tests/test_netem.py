"""Unit tests for the netem channels."""

import random

import pytest

from repro.netem.channels import (
    BernoulliLossChannel,
    CompositeChannel,
    GilbertElliottChannel,
    JitterChannel,
)
from repro.sim.packet import Packet


def pkt():
    return Packet(src="a", dst="b", flow_id="f", size=100)


class TestBernoulli:
    def test_zero_rate_never_drops(self):
        ch = BernoulliLossChannel(0.0)
        assert all(ch.transit(pkt(), 0.0) is not None for _ in range(200))

    def test_empirical_rate_near_nominal(self):
        ch = BernoulliLossChannel(0.1, rng=random.Random(1))
        for _ in range(20_000):
            ch.transit(pkt(), 0.0)
        assert ch.observed_loss_rate() == pytest.approx(0.1, abs=0.01)

    def test_counters(self):
        ch = BernoulliLossChannel(0.5, rng=random.Random(1))
        for _ in range(100):
            ch.transit(pkt(), 0.0)
        assert ch.offered == 100
        assert ch.lost == ch.offered - (ch.offered - ch.lost)

    def test_validates_rate(self):
        with pytest.raises(ValueError):
            BernoulliLossChannel(1.0)
        with pytest.raises(ValueError):
            BernoulliLossChannel(-0.1)

    def test_deterministic_given_rng(self):
        def run():
            ch = BernoulliLossChannel(0.3, rng=random.Random(9))
            return [ch.transit(pkt(), 0.0) is None for _ in range(50)]

        assert run() == run()


class TestGilbertElliott:
    def test_steady_state_formula(self):
        ch = GilbertElliottChannel(p_g2b=0.01, p_b2g=0.2, p_good=0.0, p_bad=0.5)
        pi_bad = 0.01 / 0.21
        assert ch.steady_state_loss_rate() == pytest.approx(pi_bad * 0.5)

    def test_empirical_matches_steady_state(self):
        ch = GilbertElliottChannel(
            p_g2b=0.02, p_b2g=0.2, p_good=0.0, p_bad=0.5, rng=random.Random(4)
        )
        for _ in range(100_000):
            ch.transit(pkt(), 0.0)
        assert ch.observed_loss_rate() == pytest.approx(
            ch.steady_state_loss_rate(), rel=0.1
        )

    def test_losses_are_bursty(self):
        """Consecutive-loss runs should be longer than under Bernoulli."""
        ge = GilbertElliottChannel(
            p_g2b=0.01, p_b2g=0.1, p_good=0.0, p_bad=0.9, rng=random.Random(2)
        )

        def mean_run_length(channel, n=50_000):
            runs, current = [], 0
            for _ in range(n):
                if channel.transit(pkt(), 0.0) is None:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            return sum(runs) / len(runs) if runs else 0.0

        target = ge.steady_state_loss_rate()
        be = BernoulliLossChannel(target, rng=random.Random(2))
        assert mean_run_length(ge) > 2 * mean_run_length(be)

    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            GilbertElliottChannel(p_g2b=1.5)
        with pytest.raises(ValueError):
            GilbertElliottChannel(p_g2b=0.0, p_b2g=0.0)


class TestJitter:
    def test_delay_within_bound(self):
        ch = JitterChannel(0.05, rng=random.Random(1))
        delays = [ch.transit(pkt(), 0.0) for _ in range(500)]
        assert all(0.0 <= d <= 0.05 for d in delays)
        assert max(delays) > 0.02  # actually uses the range

    def test_zero_jitter_allowed(self):
        ch = JitterChannel(0.0)
        assert ch.transit(pkt(), 0.0) == 0.0

    def test_validates_bound(self):
        with pytest.raises(ValueError):
            JitterChannel(-0.1)


class TestComposite:
    def test_delays_accumulate(self):
        class FixedDelay:
            def __init__(self, delay):
                self.delay = delay

            def transit(self, packet, now):
                return self.delay

        ch = CompositeChannel([FixedDelay(0.25), JitterChannel(0.0), FixedDelay(0.5)])
        assert ch.transit(pkt(), 0.0) == 0.75

    def test_any_stage_drop_drops(self):
        always_drop = BernoulliLossChannel(0.99, rng=random.Random(0))
        ch = CompositeChannel([JitterChannel(0.0), always_drop])
        outcomes = [ch.transit(pkt(), 0.0) for _ in range(100)]
        assert any(o is None for o in outcomes)

    def test_requires_stages(self):
        with pytest.raises(ValueError):
            CompositeChannel([])
