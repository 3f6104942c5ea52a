"""Shared seeded samplers: Poisson counts and exponential delays.

``poisson_draw`` moved here from ``repro.faults.media``; the pinned
sequences below freeze its small-lambda behaviour byte-for-byte, since
every committed baseline with seeded latent sector errors depends on the
exact draws (the media tests pin the call-site behaviour; this pins the
sampler itself, including the named-stream seeding convention).
"""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.random import (
    _POISSON_PRODUCT_LIMIT,
    exponential_ms,
    poisson_draw,
)

#: Frozen draws from the media layer's named streams.  These must never
#: change: MediaErrorMap.from_rate seeds ``{seed}/lse-{disk}`` streams
#: and any drift re-seeds every committed LSE campaign.
PINNED_LSE_STREAM = [2, 0, 0, 0, 6, 1, 2, 0, 3, 1]  # 7/lse-3, lam=2.5
PINNED_SMALL_LAMBDA = [0, 0, 0, 0, 1, 1, 1, 3, 0, 0, 2, 0]  # pin, lam=0.8


class TestPoissonDraw:
    def test_pinned_media_stream(self):
        rng = random.Random("7/lse-3")
        assert [poisson_draw(2.5, rng) for _ in range(10)] == (
            PINNED_LSE_STREAM
        )

    def test_pinned_small_lambda(self):
        rng = random.Random("pin")
        assert [poisson_draw(0.8, rng) for _ in range(12)] == (
            PINNED_SMALL_LAMBDA
        )

    def test_zero_rate_zero_count(self):
        assert poisson_draw(0.0, random.Random(1)) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson_draw(-1.0, random.Random(1))

    def test_large_lambda_no_underflow(self):
        """The product method underflows past lam ~ 745; the log-space
        regime must keep producing sane counts at arbitrary rates."""
        for lam in (1e3, 1e4, 1e6):
            draw = poisson_draw(lam, random.Random("big"))
            assert abs(draw - lam) < 6 * math.sqrt(lam)

    def test_regimes_agree_at_the_boundary(self):
        """Just below and above the product-method limit both regimes
        estimate the same distribution (means within a few sigma)."""
        lam = _POISSON_PRODUCT_LIMIT
        below = [
            poisson_draw(lam - 1, random.Random(s)) for s in range(200)
        ]
        above = [
            poisson_draw(lam + 1, random.Random(s)) for s in range(200)
        ]
        assert abs(sum(below) / 200 - (lam - 1)) < 3 * math.sqrt(lam / 200)
        assert abs(sum(above) / 200 - (lam + 1)) < 3 * math.sqrt(lam / 200)

    def test_mean_tracks_lambda(self):
        rng = random.Random("mean")
        draws = [poisson_draw(4.0, rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(4.0, rel=0.05)


class TestExponentialMs:
    def test_deterministic_from_seed(self):
        a = [exponential_ms(10.0, random.Random("e")) for _ in range(50)]
        b = [exponential_ms(10.0, random.Random("e")) for _ in range(50)]
        assert a == b

    def test_mean_tracks_parameter(self):
        rng = random.Random("expmean")
        draws = [exponential_ms(25.0, rng) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(25.0, rel=0.05)

    def test_always_nonnegative_and_finite(self):
        rng = random.Random("edge")
        for _ in range(1000):
            draw = exponential_ms(0.001, rng)
            assert 0.0 <= draw < math.inf

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            exponential_ms(0.0, random.Random(1))
        with pytest.raises(ConfigurationError):
            exponential_ms(-5.0, random.Random(1))

