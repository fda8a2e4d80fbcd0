"""Deterministic samplers behind the population specs.

Pure functions of ``(spec, random.Random)``: every draw comes from the
``rng`` argument and nothing else, so a caller that hands in a
seed-derived stream (the
:func:`~repro.traffic.population.expand_population` discipline) gets
bit-identical samples for the same seed.  Draw *order* is part of the
contract — the determinism tests pin it.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from repro.traffic.specs import ArrivalSpec, SizeSpec


def iter_arrivals(
    spec: ArrivalSpec, rng: random.Random, horizon: float, n_max: int
) -> Iterator[float]:
    """Arrival times in ``(0, horizon)``, at most ``n_max``, ascending,
    drawn one at a time as the consumer pulls."""
    if spec.kind == "poisson":
        return _poisson(rng, spec.rate_per_s, horizon, n_max)
    if spec.kind == "onoff":
        return _onoff(
            rng, spec.rate_per_s, spec.mean_on, spec.mean_off, horizon, n_max
        )
    return _flash_crowd(
        rng,
        spec.base_rate_per_s,
        spec.peak_rate_per_s,
        spec.ramp_start,
        spec.ramp_duration,
        horizon,
        n_max,
    )


def _poisson(
    rng: random.Random, rate: float, horizon: float, n_max: int
) -> Iterator[float]:
    expovariate = rng.expovariate
    t = 0.0
    for _ in range(n_max):
        t += expovariate(rate)
        if t >= horizon:
            break
        yield t


def _onoff(
    rng: random.Random,
    rate: float,
    mean_on: float,
    mean_off: float,
    horizon: float,
    n_max: int,
) -> Iterator[float]:
    expovariate = rng.expovariate
    t = 0.0
    n = 0
    while t < horizon and n < n_max:
        on_end = t + expovariate(1.0 / mean_on)
        while n < n_max:
            t += expovariate(rate)
            if t >= on_end or t >= horizon:
                break
            n += 1
            yield t
        # the overshooting inter-arrival gap is discarded: the next
        # burst restarts the Poisson process after the OFF gap
        t = min(on_end, horizon) + expovariate(1.0 / mean_off)


def _flash_crowd(
    rng: random.Random,
    base: float,
    peak: float,
    ramp_start: float,
    ramp_duration: float,
    horizon: float,
    n_max: int,
) -> Iterator[float]:
    """Non-homogeneous Poisson via thinning at the peak rate."""
    expovariate, uniform = rng.expovariate, rng.random
    t = 0.0
    n = 0
    while n < n_max:
        t += expovariate(peak)
        if t >= horizon:
            break
        if t < ramp_start:
            rate = base
        else:
            rate = base + (peak - base) * min(
                1.0, (t - ramp_start) / ramp_duration
            )
        if uniform() < rate / peak:
            n += 1
            yield t


def size_sampler(spec: SizeSpec, rng: random.Random) -> Callable[[], int]:
    """A zero-argument draw of one flow size in bytes (an integer ``>= 1``).

    The ``kind`` dispatch and the distribution's constants are resolved
    here, once, so a population expansion pays them per class instead
    of per flow.  ``fixed`` consumes no draw; the other kinds consume
    exactly one per call.
    """
    min_bytes = spec.min_bytes
    if spec.kind == "fixed":
        size_bytes = spec.size_bytes
        return lambda: size_bytes
    if spec.kind == "exponential":
        expovariate, lambd = rng.expovariate, 1.0 / spec.mean_bytes
        return lambda: max(min_bytes, int(expovariate(lambd)))
    # truncated Pareto: inverse-CDF with the tail clamped to max_bytes.
    # rng.random() is in [0, 1), so 1 - u is in (0, 1] and u == 0 maps
    # to the scale min_bytes exactly.
    uniform, max_bytes = rng.random, spec.max_bytes
    exponent = -1.0 / spec.alpha

    def pareto() -> int:
        size = int(min_bytes * (1.0 - uniform()) ** exponent)
        return min_bytes if size < min_bytes else min(size, max_bytes)

    return pareto

