"""Per-mode latency accounting and the StoppingRule warmup property."""

import pytest

from repro.errors import ConfigurationError
from repro.stats import LatencyByMode, StoppingRule


class TestLatencyByMode:
    def test_bins_by_mode(self):
        by_mode = LatencyByMode()
        by_mode.record("fault-free", 10.0)
        by_mode.record("fault-free", 20.0)
        by_mode.record("degraded", 40.0)
        assert by_mode.samples("fault-free") == 2
        assert by_mode.samples("degraded") == 1
        assert by_mode.samples("reconstruction") == 0
        assert by_mode.mean("fault-free") == 15.0
        counts = [h["count"] for h in by_mode.to_dict().values()]
        assert sum(counts) == 3

    def test_unknown_mode_histogram_raises(self):
        with pytest.raises(ConfigurationError):
            LatencyByMode().histogram("nope")

    def test_to_dict_orders_modes(self):
        by_mode = LatencyByMode()
        by_mode.record("z-mode", 1.0)
        by_mode.record("a-mode", 1.0)
        assert list(by_mode.to_dict()) == ["a-mode", "z-mode"]


class TestWarmupDone:
    def test_tracks_the_warmup_prefix(self):
        rule = StoppingRule(warmup=3, min_samples=2, check_interval=1)
        assert not rule.warmup_done
        rule.offer(10.0)
        rule.offer(10.0)
        assert not rule.warmup_done
        rule.offer(10.0)
        assert rule.warmup_done
        assert rule.samples == 0
        rule.offer(10.0)
        assert rule.warmup_done
        assert rule.samples == 1

    def test_zero_warmup_is_immediately_done(self):
        rule = StoppingRule(warmup=0, min_samples=2, check_interval=1)
        assert rule.warmup_done
