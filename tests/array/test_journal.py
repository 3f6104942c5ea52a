"""Unit tests for the NVRAM dirty-stripe journal."""

import pytest

from repro.array.journal import StripeJournal
from repro.errors import ConfigurationError, SimulationError


class TestStripeJournal:
    def test_mark_and_clear_round_trip(self):
        journal = StripeJournal()
        journal.mark([3, 7, 1])
        assert journal.dirty_stripes() == [1, 3, 7]
        assert journal.dirty_count == 3
        assert 7 in journal.dirty_stripes()
        assert 2 not in journal.dirty_stripes()
        journal.clear([3, 7, 1])
        assert journal.dirty_stripes() == []
        assert journal.dirty_count == 0

    def test_overlapping_writes_are_reference_counted(self):
        # Two in-flight writes sharing stripe 4: the first completion
        # must not clean a stripe the second write still has open.
        journal = StripeJournal()
        journal.mark([3, 4])
        journal.mark([4, 5])
        journal.clear([3, 4])
        assert journal.dirty_stripes() == [4, 5]
        journal.clear([4, 5])
        assert journal.dirty_stripes() == []

    def test_clearing_a_clean_stripe_is_a_bug(self):
        journal = StripeJournal()
        journal.mark([1])
        with pytest.raises(SimulationError, match="clean stripe"):
            journal.clear([2])

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            StripeJournal(latency_ms=-0.1)

    def test_counters_and_peak(self):
        journal = StripeJournal(latency_ms=0.2)
        journal.mark([1, 2, 3])
        journal.mark([4])
        journal.clear([1, 2, 3])
        assert journal.to_dict() == {
            "latency_ms": 0.2,
            "marks": 2,
            "clears": 1,
            "dirty": 1,
            "peak_dirty": 4,
        }

    def test_reset_empties_the_log(self):
        journal = StripeJournal()
        journal.mark([1, 2])
        journal.reset()
        assert journal.dirty_stripes() == []
        # After replay the log is reusable for fresh writes.
        journal.mark([9])
        journal.clear([9])
        assert journal.dirty_stripes() == []
