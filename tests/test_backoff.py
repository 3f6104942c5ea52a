"""Regression pins for the shared capped-exponential backoff helper.

Both historical call sites had the formula inlined; the sequences below
are what those call sites produced before the dedup into
``repro.backoff``.  The controller's delays feed the simulated event
engine (so they are part of the byte-determinism contract), and the
worker pool's delays gate wall-clock retry pacing — neither may drift.
"""

from repro.array.controller import RETRY_BACKOFF_BASE_MS, RETRY_BACKOFF_CAP_MS
from repro.backoff import capped_exponential


class TestCappedExponential:
    def test_controller_retry_policy_default_sequence(self):
        # The controller's retry backoff: base 1.0 ms, cap 50.0 ms.
        delays = [
            capped_exponential(a, RETRY_BACKOFF_BASE_MS, RETRY_BACKOFF_CAP_MS)
            for a in range(1, 9)
        ]
        assert delays == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0, 50.0]

    def test_worker_pool_default_sequence(self):
        # run_hardened defaults: base 0.5 s, cap 30.0 s.
        delays = [capped_exponential(a, 0.5, 30.0) for a in range(1, 9)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_first_attempt_waits_base(self):
        assert capped_exponential(1, 3.25, 100.0) == 3.25

    def test_cap_is_exact_not_approached(self):
        # Once the doubled value crosses the cap, the cap itself is
        # returned — not the last pre-cap value.
        assert capped_exponential(7, 1.0, 50.0) == 50.0

    def test_zero_base_stays_zero(self):
        assert capped_exponential(5, 0.0, 10.0) == 0.0

    def test_matches_inline_formula_bit_for_bit(self):
        # The helper must reproduce the historical inline expression
        # exactly (same operation order → same float results).
        for attempt in range(1, 20):
            for base, cap in [(1.0, 50.0), (0.5, 30.0), (0.1, 7.3)]:
                inline = min(base * (2 ** (attempt - 1)), cap)
                assert capped_exponential(attempt, base, cap) == inline
