"""Unit tests for the generation-counter integrity oracle."""

from repro.array.controller import ArrayController, LogicalAccess
from repro.faults.crash import CrashInjector
from repro.faults.oracle import IntegrityOracle, StripeParityModel
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine
from tests.layouts.reference_layout import stripe_units


class TestStripeParityModel:
    def setup_method(self):
        self.layout = make_layout("raid5", 5, 5)
        self.model = StripeParityModel(self.layout)

    def test_fresh_array_is_consistent(self):
        assert self.model.is_consistent(0)

    def test_reconstruct_round_trips_when_consistent(self):
        self.model.plan_write(0, 4).apply_all()
        for unit in range(4):
            assert (
                self.model.reconstruct(0, unit) == self.model.stored[unit]
            )

    def test_delta_write_propagates_garbage_parity(self):
        # The conservative heart of the oracle: a small write updates
        # parity by *delta*, so pre-existing garbage parity stays garbage
        # after the write completes — completion never clears suspicion.
        model = self.model
        model.plan_write(0, 4).apply_all()
        model.parity[0] += 17  # the write hole left this stripe torn
        small = model.plan_write(1, 1)
        assert len(small.plan.phases) == 2  # read-modify-write
        small.apply_all()
        assert not model.is_consistent(0)
        # Only resync (recompute from data) repairs it.
        model.resync(0)
        assert model.is_consistent(0)


def run_torn_write():
    engine = SimulationEngine()
    layout = make_layout("raid5", 5, 5)
    controller = ArrayController(engine, layout)
    oracle = controller.attach_oracle(IntegrityOracle(layout))
    crash = CrashInjector(controller, at_boundary=0)
    crash.arm()
    controller.submit(LogicalAccess(0, 0, 1, True), lambda a, ms: None)
    engine.run()
    assert crash.fired
    return engine, layout, controller, oracle


class TestIntegrityOracleOnline:
    def test_clean_write_commits_without_suspicion(self):
        engine = SimulationEngine()
        layout = make_layout("raid5", 5, 5)
        controller = ArrayController(engine, layout)
        oracle = controller.attach_oracle(IntegrityOracle(layout))
        controller.submit(LogicalAccess(0, 0, 2, True), lambda a, ms: None)
        engine.run()
        report = oracle.verify()
        assert report["writes_begun"] == 1
        assert report["writes_committed"] == 1
        assert report["torn_writes"] == 0
        assert report["suspect_stripes"] == 0
        assert report["corruption_events"] == 0

    def test_torn_write_marks_its_stripes_suspect(self):
        _, _, _, oracle = run_torn_write()
        report = oracle.verify()
        assert report["torn_writes"] == 1
        assert report["writes_committed"] == 0
        assert report["suspect_stripes"] == 1
        assert report["corruption_events"] == 0  # not *served* yet

    def test_suspect_stripe_on_failed_chain_is_at_risk(self):
        _, layout, _, oracle = run_torn_write()
        suspect = next(iter(oracle.suspect))
        member = stripe_units(layout, suspect).data[0].disk
        outsider = next(
            d
            for d in range(layout.n)
            if d not in stripe_units(layout, suspect).disks()
        ) if len(set(stripe_units(layout, suspect).disks())) < layout.n else None
        assert oracle.verify(failed_disk=member)["at_risk_stripes"] == 1
        if outsider is not None:
            report = oracle.verify(failed_disk=outsider)
            assert report["at_risk_stripes"] == 0

    def test_reconstructed_read_through_suspect_parity_is_corruption(self):
        _, _, _, oracle = run_torn_write()
        suspect = next(iter(oracle.suspect))
        unit = next(iter(oracle.layout.data_units_of_stripe(suspect)))
        oracle.check_reconstructed_read(unit)
        report = oracle.verify()
        assert report["corruption_events"] == 1
        assert report["corruption_detail"][0]["kind"] == "reconstructed-read"

    def test_rebuild_of_suspect_data_is_corruption_but_parity_is_repair(
        self,
    ):
        _, _, _, oracle = run_torn_write()
        suspect = next(iter(oracle.suspect))
        oracle.check_rebuild_step(suspect, lost_is_data=False)
        assert oracle.corruption_count == 0
        assert suspect not in oracle.suspect  # parity recompute repaired
        oracle.suspect.add(suspect)
        oracle.check_rebuild_step(suspect, lost_is_data=True)
        assert oracle.corruption_count == 1

    def test_resync_clears_suspicion(self):
        _, _, _, oracle = run_torn_write()
        suspect = next(iter(oracle.suspect))
        oracle.note_resync(suspect)
        report = oracle.verify()
        assert report["suspect_stripes"] == 0
        assert report["resynced_stripes"] == 1
        # A degraded read through the repaired stripe is now safe.
        unit = next(iter(oracle.layout.data_units_of_stripe(suspect)))
        oracle.check_reconstructed_read(unit)
        assert oracle.verify()["corruption_events"] == 0
