"""Arrival processes: determinism, mean rates, validation."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.traffic.arrivals import (
    DIURNAL_MULTIPLIERS,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
)


def _stream(process, n=500):
    return [process.next_delay_ms() for _ in range(n)]


def _mean_rate_per_s(delays):
    return 1000.0 * len(delays) / sum(delays)


class TestDeterminism:
    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: PoissonArrivals(400.0, rng),
            lambda rng: MMPPArrivals.bursty(400.0, 6.0, 0.15, 120.0, rng),
            lambda rng: TraceArrivals.diurnal(400.0, 600.0, rng),
        ],
        ids=["poisson", "mmpp", "trace"],
    )
    def test_same_seed_same_stream(self, build):
        a = _stream(build(random.Random("7/arrivals")))
        b = _stream(build(random.Random("7/arrivals")))
        assert a == b

    def test_different_seeds_differ(self):
        a = _stream(PoissonArrivals(400.0, random.Random("1/arrivals")))
        b = _stream(PoissonArrivals(400.0, random.Random("2/arrivals")))
        assert a != b


class TestRates:
    def test_poisson_mean_matches_rate(self):
        delays = _stream(
            PoissonArrivals(500.0, random.Random("rate")), 4000
        )
        assert _mean_rate_per_s(delays) == pytest.approx(500.0, rel=0.1)

    def test_mmpp_long_run_average_matches_offered_rate(self):
        process = MMPPArrivals.bursty(
            500.0, 8.0, 0.2, 100.0, random.Random("mmpp")
        )
        delays = _stream(process, 20000)
        assert _mean_rate_per_s(delays) == pytest.approx(500.0, rel=0.1)

    def test_mmpp_is_burstier_than_poisson(self):
        """Squared coefficient of variation: 1 for Poisson, above 1 for
        a modulated process — the defining property of MMPP."""

        def scv(delays):
            mean = sum(delays) / len(delays)
            var = sum((d - mean) ** 2 for d in delays) / len(delays)
            return var / (mean * mean)

        poisson = _stream(
            PoissonArrivals(400.0, random.Random("cv")), 20000
        )
        mmpp = _stream(
            MMPPArrivals.bursty(
                400.0, 10.0, 0.1, 200.0, random.Random("cv")
            ),
            20000,
        )
        assert scv(poisson) == pytest.approx(1.0, abs=0.2)
        assert scv(mmpp) > scv(poisson) + 0.3

    def test_trace_long_run_average_matches_offered_rate(self):
        assert sum(DIURNAL_MULTIPLIERS) / len(DIURNAL_MULTIPLIERS) == (
            pytest.approx(1.0)
        )
        process = TraceArrivals.diurnal(
            500.0, 600.0, random.Random("trace")
        )
        delays = _stream(process, 20000)
        assert _mean_rate_per_s(delays) == pytest.approx(500.0, rel=0.1)

    def test_trace_peak_segment_runs_hot(self):
        process = TraceArrivals(
            [(1000.0, 100.0), (1000.0, 1000.0)], random.Random("seg")
        )
        delays = _stream(process, 20000)
        # Arrivals inside the hot segment are 10x closer together.
        fast = sum(1 for d in delays if d < 5.0)
        assert fast > len(delays) / 2


class TestValidation:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0, random.Random(0))
        with pytest.raises(ConfigurationError):
            PoissonArrivals(-10.0, random.Random(0))

    def test_mmpp_needs_two_states(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals([400.0], [100.0], random.Random(0))

    def test_mmpp_needs_matching_dwells(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals([400.0, 800.0], [100.0], random.Random(0))

    def test_mmpp_needs_positive_dwells(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals([400.0, 800.0], [100.0, 0.0], random.Random(0))

    def test_bursty_envelope_validation(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals.bursty(400.0, 0.5, 0.15, 100.0, random.Random(0))
        with pytest.raises(ConfigurationError):
            MMPPArrivals.bursty(400.0, 6.0, 1.0, 100.0, random.Random(0))

    def test_trace_rejects_empty_and_bad_segments(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([], random.Random(0))
        with pytest.raises(ConfigurationError):
            TraceArrivals([(0.0, 400.0)], random.Random(0))
        with pytest.raises(ConfigurationError):
            TraceArrivals([(100.0, -1.0)], random.Random(0))
