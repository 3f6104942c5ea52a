"""Slow-disk detection and hedged degraded-reads (tail tolerance)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array.controller import (
    DETECTOR_HYSTERESIS,
    DETECTOR_MIN_SAMPLES,
    EWMA_ALPHA,
    QUARANTINE_FACTOR,
    UNQUARANTINE_FACTOR,
    ArrayController,
    LogicalAccess,
    SlowDiskDetector,
)
from repro.errors import ConfigurationError
from repro.faults.failslow import FailSlowModel
from repro.layouts import make_layout
from repro.runner.spec import FailSlowTrialSpec
from repro.sim.engine import SimulationEngine


class TestHedgePolicyValidation:
    def test_defaults_are_valid(self):
        # The detector's constants: a quarantine needs a real outlier,
        # and a release needs the disk back below the quarantine bar.
        assert 0.0 < EWMA_ALPHA <= 1.0
        assert QUARANTINE_FACTOR > 1.0
        assert 0.0 < UNQUARANTINE_FACTOR <= QUARANTINE_FACTOR
        assert DETECTOR_MIN_SAMPLES >= 1 and DETECTOR_HYSTERESIS >= 1

    def test_rejects_bad_knobs(self):
        # The deferral, hedging's one setting, is checked where it
        # enters: the fail-slow spec.
        for deferral_ms in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="hedge deferral"):
                FailSlowTrialSpec(layout="pddl", hedge_deferral_ms=deferral_ms)


def build():
    engine = SimulationEngine()
    return engine, ArrayController(engine, make_layout("pddl", 13, 4))


def feed(detector, latencies_by_disk, rounds):
    """Feed one observation per disk per round, round-robin."""
    for _ in range(rounds):
        for disk, latency in enumerate(latencies_by_disk):
            detector.observe(disk, latency)


class TestSlowDiskDetector:
    def test_homogeneous_latencies_never_quarantine(self):
        detector = SlowDiskDetector(5)
        feed(detector, [20.0] * 5, rounds=100)
        assert detector.quarantines == 0
        assert detector.report()["quarantined"] == []

    def test_slow_outlier_is_quarantined(self):
        detector = SlowDiskDetector(5)
        feed(detector, [20.0, 20.0, 100.0, 20.0, 20.0], rounds=40)
        assert detector.is_quarantined(2)
        assert detector.quarantines == 1
        assert detector.report()["quarantined"] == [2]

    def test_no_verdicts_before_min_samples(self):
        detector = SlowDiskDetector(5)
        latencies = [20.0, 20.0, 500.0, 20.0, 20.0]
        feed(detector, latencies, rounds=DETECTOR_MIN_SAMPLES - 1)
        assert detector.quarantines == 0
        # The verdicts start with the sample that reaches the minimum.
        feed(detector, latencies, rounds=DETECTOR_HYSTERESIS)
        assert detector.is_quarantined(2)

    def test_hysteresis_absorbs_a_transient_spike(self):
        detector = SlowDiskDetector(3)
        # Warm everyone up to a 20ms baseline.
        feed(detector, [20.0] * 3, rounds=20)
        # One outlier sample lifts the EWMA past the quarantine bar...
        detector.observe(0, 300.0)
        assert detector.ewma[0] > QUARANTINE_FACTOR * 20.0
        # ...and normal service decays it back under within fewer
        # observations than the hysteresis streak needs.
        for _ in range(10):
            feed(detector, [20.0] * 3, rounds=1)
        assert not detector.is_quarantined(0)
        assert detector.quarantines == 0

    def test_unquarantine_after_heal(self):
        detector = SlowDiskDetector(5)
        feed(detector, [20.0, 20.0, 100.0, 20.0, 20.0], rounds=40)
        assert detector.is_quarantined(2)
        feed(detector, [20.0] * 5, rounds=60)
        assert not detector.is_quarantined(2)
        assert detector.unquarantines == 1

    @given(
        multiplier=st.floats(min_value=4.0, max_value=20.0),
        base=st.floats(min_value=5.0, max_value=50.0),
        slow_disk=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_hysteresis_converges_after_failslow_heals(
        self, multiplier, base, slow_disk
    ):
        """Quarantine -> unquarantine always converges once the gray
        failure clears, regardless of how slow the disk was."""
        detector = SlowDiskDetector(5)
        latencies = [base] * 5
        latencies[slow_disk] = base * multiplier
        feed(detector, latencies, rounds=60)
        assert detector.is_quarantined(slow_disk)
        feed(detector, [base] * 5, rounds=80)
        assert not detector.is_quarantined(slow_disk)
        assert detector.quarantines == detector.unquarantines == 1
        # And it stays out: a healthy disk is never re-quarantined.
        feed(detector, [base] * 5, rounds=40)
        assert detector.quarantines == 1


def run_bursts(
    burst_sizes,
    seed,
    layout="pddl",
    k=4,
    slow_disk=None,
    multiplier=5.0,
    fail=None,
    gap_ms=200.0,
):
    """Drive bursty single-unit reads through a hedging controller."""
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout(layout, 13, k))
    controller.enable_hedging(30.0)
    if fail is not None:
        controller.fail_disk(fail)
    if slow_disk is not None:
        controller.servers[slow_disk].drive.fail_slow = FailSlowModel(
            multiplier, onset_ms=0.0
        )
    rng = random.Random(seed)
    responses = []
    access_id = 0
    start_ms = 0.0
    for size in burst_sizes:
        for _ in range(size):
            access_id += 1
            unit = rng.randrange(controller.addressable_data_units)
            access = LogicalAccess(access_id, unit, 1, is_write=False)
            engine.schedule_at(
                start_ms,
                lambda a=access: controller.submit(
                    a, lambda _, ms: responses.append(ms)
                ),
            )
        start_ms += gap_ms
    engine.run()
    return controller, responses


class TestHedgedReads:
    def test_hedges_resolve_and_accounting_balances(self):
        controller, responses = run_bursts([20] * 8, seed=3, slow_disk=4)
        stats = controller.io_stats
        assert stats.hedges_launched > 0
        assert stats.hedges_won > 0
        # Every launched hedge resolves exactly one way once drained.
        assert (
            stats.hedges_launched == stats.hedges_won + stats.hedges_lost
        )
        assert controller._hedges == {}
        assert len(responses) == 160

    def test_slow_disk_gets_quarantined(self):
        controller, _ = run_bursts([20] * 8, seed=3, slow_disk=4)
        assert controller.slow_disk_detector.report()["quarantined"] == [4]

    def test_hedging_cuts_tail_under_failslow(self):
        _, defended = run_bursts([16] * 8, seed=11, slow_disk=2)
        engine = SimulationEngine()
        undefended_controller = ArrayController(
            engine, make_layout("pddl", 13, 4)
        )
        undefended_controller.servers[2].drive.fail_slow = FailSlowModel(
            5.0, onset_ms=0.0
        )
        rng = random.Random(11)
        undefended = []
        access_id = 0
        start_ms = 0.0
        for _ in range(8):
            for _ in range(16):
                access_id += 1
                unit = rng.randrange(
                    undefended_controller.addressable_data_units
                )
                access = LogicalAccess(access_id, unit, 1, is_write=False)
                engine.schedule_at(
                    start_ms,
                    lambda a=access: undefended_controller.submit(
                        a, lambda _, ms: undefended.append(ms)
                    ),
                )
            start_ms += 200.0
        engine.run()
        assert max(defended) < max(undefended)

    def test_raid5_degraded_hedges_abort(self):
        # Mid-failure RAID5: every stripe contains the failed disk, so
        # no stripe has redundancy left to hedge from.
        controller, responses = run_bursts(
            [10] * 4, seed=5, layout="raid5", k=13, slow_disk=4, fail=0
        )
        stats = controller.io_stats
        assert stats.hedges_launched == 0
        assert stats.hedge_aborts > 0
        assert len(responses) == 40

    def test_pddl_degraded_hedges_still_fire(self):
        # Declustering (k < n) leaves most stripes fully redundant even
        # with one disk down: hedging keeps working mid-failure.
        controller, _ = run_bursts(
            [10] * 4, seed=5, layout="pddl", k=4, slow_disk=4, fail=0
        )
        assert controller.io_stats.hedges_launched > 0

    def test_instrumentation_keys_gated_on_policy(self):
        _engine, controller = build()
        record = controller.instrumentation_record()
        assert "io_recovery" not in record
        assert "slow_disks" not in record
        controller.enable_hedging(30.0)
        record = controller.instrumentation_record()
        assert "hedges_launched" in record["io_recovery"]
        assert record["slow_disks"]["quarantines"] == 0

    def test_crash_clears_armed_hedges(self):
        engine, controller = build()
        controller.enable_hedging(30.0)
        controller.submit(
            LogicalAccess(1, 0, 4, is_write=False), lambda a, ms: None
        )
        assert controller._hedges
        controller.crash()
        engine.clear_pending()
        assert controller._hedges == {}
        engine.run()  # nothing pending explodes

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        bursts=st.lists(
            st.integers(min_value=2, max_value=24),
            min_size=3,
            max_size=8,
        ),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_healthy_array_never_quarantines_under_bursty_load(
        self, seed, bursts
    ):
        """A homogeneous healthy array must produce zero quarantines no
        matter how bursty the (uniformly addressed) load is: queueing
        inflates every disk's EWMA together, never one disk 3x past the
        median with hysteresis."""
        controller, _ = run_bursts(bursts, seed=seed)
        detector = controller.slow_disk_detector
        assert detector.quarantines == 0
        assert detector.report()["quarantined"] == []
