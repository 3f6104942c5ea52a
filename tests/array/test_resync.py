"""Unit tests for post-crash resync: classification and replay."""

import pytest

from repro.array.controller import ArrayController, LogicalAccess
from repro.array.journal import StripeJournal
from repro.array.resync import (
    Resynchronizer,
    classify_stripe,
    resync_region_units,
)
from repro.errors import SimulationError
from repro.faults.crash import CrashInjector
from repro.faults.oracle import IntegrityOracle
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine
from tests.layouts.reference_layout import stripe_units


def make_array(layout_name="raid5", disks=5, width=5, journal=True):
    engine = SimulationEngine()
    layout = make_layout(layout_name, disks, width)
    controller = ArrayController(engine, layout)
    oracle = controller.attach_oracle(IntegrityOracle(layout))
    log = (
        controller.attach_journal(StripeJournal(latency_ms=0.05))
        if journal
        else None
    )
    return engine, layout, controller, oracle, log


class TestClassifyStripe:
    def setup_method(self):
        self.layout = make_layout("raid5", 5, 5)

    def _check_disk(self, stripe):
        (check,) = stripe_units(self.layout, stripe).check
        return check

    def test_no_failed_disk_is_always_recompute(self):
        assert classify_stripe(self.layout, 0, None) == "recompute"

    def test_failed_data_member_is_data_lost(self):
        addr = stripe_units(self.layout, 0).data[0]
        verdict = classify_stripe(self.layout, 0, addr.disk)
        assert verdict == "data_lost"

    def test_failed_check_member_is_parity_lost(self):
        check = self._check_disk(0)
        assert classify_stripe(self.layout, 0, check.disk) == "parity_lost"

    def test_uninvolved_disk_is_recompute(self):
        involved = {a.disk for a in stripe_units(self.layout, 0).all_units()}
        # RAID 5 at width 5 on 5 disks involves every disk; use a
        # declustered layout to find an uninvolved one.
        layout = make_layout("parity-declustering", 7, 4)
        involved = {a.disk for a in stripe_units(layout, 0).all_units()}
        outsider = next(d for d in range(layout.n) if d not in involved)
        assert classify_stripe(layout, 0, outsider) == "recompute"

    def test_rebuild_frontier_heals_the_classification(self):
        addr = stripe_units(self.layout, 0).data[0]
        behind = lambda offset: True  # noqa: E731 - fully swept
        ahead = lambda offset: False  # noqa: E731 - not reached
        assert (
            classify_stripe(self.layout, 0, addr.disk, rebuilt=behind)
            == "recompute"
        )
        assert (
            classify_stripe(self.layout, 0, addr.disk, rebuilt=ahead)
            == "data_lost"
        )


def crash_one_write(engine, controller, first_unit=0, unit_count=1):
    """Submit one small (read-modify-write, two-phase) write and crash
    at its first phase boundary — between the pre-reads and the data and
    parity writes, the canonical write-hole instant."""
    crash = CrashInjector(controller, at_boundary=0)
    crash.arm()
    controller.submit(
        LogicalAccess(0, first_unit, unit_count, True), lambda a, ms: None
    )
    engine.run()
    assert crash.fired
    return crash


class TestResynchronizer:
    def test_journal_replay_sweeps_exactly_the_dirty_set(self):
        engine, layout, controller, oracle, log = make_array()
        crash = crash_one_write(engine, controller)
        dirty = log.dirty_stripes()
        assert dirty == crash.torn_stripes  # NVRAM named the torn set

        resync = Resynchronizer(
            controller, journal=log, suspect=set(crash.torn_stripes)
        )
        assert resync.sweep == dirty
        resync.start()
        engine.run()
        assert resync.complete
        assert resync.recomputed == len(dirty)
        assert resync.duration_ms > 0
        assert log.dirty_stripes() == []  # replay emptied the NVRAM
        verification = oracle.verify()
        assert verification["corruption_events"] == 0
        assert verification["suspect_stripes"] == 0

    def test_full_sweep_covers_the_region_and_costs_more(self):
        engine, layout, controller, oracle, log = make_array(journal=False)
        crash = crash_one_write(engine, controller)

        rows = 2 * layout.period
        resync = Resynchronizer(
            controller, rows=rows, suspect=set(crash.torn_stripes)
        )
        assert resync.stripes_total == 2 * layout.stripes_per_period
        assert set(crash.torn_stripes) <= set(resync.sweep)
        resync.start()
        engine.run()
        assert resync.complete
        assert resync.recomputed == resync.stripes_total
        assert oracle.verify()["corruption_events"] == 0

    def test_torn_stripe_on_failed_data_member_is_data_loss(self):
        engine, layout, controller, oracle, log = make_array()
        crash = crash_one_write(engine, controller)
        torn = crash.torn_stripes[0]
        victim = stripe_units(layout, torn).data[0].disk
        controller.fail_disk(victim)

        resync = Resynchronizer(
            controller, journal=log, suspect=set(crash.torn_stripes)
        )
        resync.start()
        assert resync.aborted
        assert torn in resync.data_lost_stripes
        assert "write hole" in controller.data_loss_reason

    def test_clean_stripes_on_failed_disk_stay_safe(self):
        # A degraded full sweep meets many stripes with a data member on
        # the failed disk; only genuinely-torn ones are data loss.
        engine, layout, controller, oracle, log = make_array(journal=False)
        crash = crash_one_write(engine, controller)
        torn = set(crash.torn_stripes)
        check_disk = stripe_units(layout, next(iter(torn))).check[0].disk
        controller.fail_disk(check_disk)

        resync = Resynchronizer(
            controller, rows=2 * layout.period, suspect=torn
        )
        resync.start()
        engine.run()
        assert not resync.aborted and resync.complete
        # Untorn stripes with a lost data member were skipped, not
        # recomputed from a half-written mirror and not declared lost.
        assert resync.consistent_skipped > 0
        assert resync.data_lost_stripes == []

    def test_parameter_validation(self):
        engine, layout, controller, oracle, log = make_array()
        with pytest.raises(SimulationError):
            Resynchronizer(controller, parallel_stripes=0)
        resync = Resynchronizer(controller, journal=log)
        resync.start()
        with pytest.raises(SimulationError):
            resync.start()


class TestResyncRegion:
    @pytest.mark.parametrize(
        "name,width", [("pddl", 4), ("datum", 4), ("raid5", 13)]
    )
    def test_client_region_is_the_full_sweep_region(self, name, width):
        engine = SimulationEngine()
        layout = make_layout(name, 13, width)
        controller = ArrayController(engine, layout)
        units = resync_region_units(controller, 26)
        swept = set(Resynchronizer(controller, rows=26).sweep)
        assert {layout.stripe_of_data_unit(u) for u in range(units)} <= swept
        assert layout.stripe_of_data_unit(units) not in swept

    def test_region_is_capped_at_the_array(self):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("raid5", 5, 5))
        assert (
            resync_region_units(controller, 10**9)
            == controller.addressable_data_units
        )
