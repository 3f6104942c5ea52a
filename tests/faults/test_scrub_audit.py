"""Parity-audit scrubbing: detection, repair, and degraded behavior."""

from repro.array.controller import ArrayController
from repro.faults.corruption import CorruptionModel
from repro.faults.media import MediaErrorMap
from repro.faults.oracle import IntegrityOracle
from repro.faults.scrubber import Scrubber, aggregate_scrub
from repro.layouts import Role, make_layout
from repro.sim.engine import SimulationEngine
from tests.layouts.reference_layout import stripe_units

ROWS = 26


def build():
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout("pddl", 13, 4))
    model = CorruptionModel(13, ROWS, seed="audit-test")
    controller.attach_corruption(model)
    controller.enable_checksums()
    return engine, controller, model


def find_cells(layout, role, count):
    cells = []
    for disk in range(layout.n):
        for offset in range(ROWS):
            if layout.locate(disk, offset).role is role:
                cells.append((disk, offset))
                if len(cells) == count:
                    return cells
    raise AssertionError(f"fewer than {count} {role} cells")


def run_audit(engine, controller, rows=ROWS, horizon_ms=20_000.0):
    scrubber = Scrubber(
        controller,
        MediaErrorMap({}),
        interval_ms=10.0,
        rows=rows,
        audit=True,
    )
    scrubber.start()
    engine.schedule(horizon_ms, engine.stop)
    engine.run()
    return scrubber


class TestAuditRepairs:
    def test_data_cells_reconstructed_from_stripe(self):
        engine, controller, model = build()
        cells = find_cells(controller.layout, Role.DATA, 3)
        for disk, offset in cells:
            model.pollute(disk, offset)
        scrubber = run_audit(engine, controller)
        assert scrubber.passes_completed >= 1
        assert scrubber.stripes_audited > 0
        assert scrubber.audit_mismatches >= len(cells)
        assert scrubber.audit_repairs >= len(cells)
        assert scrubber.audit_unrepairable == 0
        assert model.remaining == 0

    def test_spare_cells_rewritten_not_counted_unrepairable(self):
        """Spare cells have no stripe peers; the audit repair is a
        plain rewrite (fresh content + fresh metadata), never an
        unrepairable count."""
        engine, controller, model = build()
        cells = find_cells(controller.layout, Role.SPARE, 2)
        for disk, offset in cells:
            model.pollute(disk, offset)
        scrubber = run_audit(engine, controller)
        assert scrubber.audit_mismatches >= len(cells)
        assert scrubber.audit_unrepairable == 0
        assert model.remaining == 0

    def test_clean_array_audits_without_mismatches(self):
        engine, controller, model = build()
        scrubber = run_audit(engine, controller, horizon_ms=2_000.0)
        assert scrubber.stripes_audited > 0
        assert scrubber.audit_mismatches == 0
        assert scrubber.audit_repairs == 0

    def test_detection_feeds_the_model_ledger(self):
        engine, controller, model = build()
        disk, offset = find_cells(controller.layout, Role.DATA, 1)[0]
        model.pollute(disk, offset)
        run_audit(engine, controller)
        report = model.report()
        assert report["detected_total"] >= 1
        assert report["silent_total"] == 0
        assert report["repaired"]["parity-pollution"] >= 1


class TestAuditWhileDegraded:
    def test_audit_pauses_and_oracle_stays_clean(self):
        """A scrub audit never runs against a degraded array: the
        scrubber cedes bandwidth, no mismatch is consumed or repaired,
        and the oracle records no corruption and no suspect stripes
        from the paused audit."""
        engine, controller, model = build()
        oracle = controller.attach_oracle(
            IntegrityOracle(controller.layout)
        )
        disk, offset = find_cells(controller.layout, Role.DATA, 1)[0]
        model.pollute(disk, offset)
        controller.fail_disk((disk + 1) % controller.layout.n)
        scrubber = run_audit(engine, controller, horizon_ms=2_000.0)
        assert scrubber.stripes_audited == 0
        assert scrubber.audit_repairs == 0
        assert model.remaining == 1  # latent, untouched
        report = oracle.verify(failed_disk=(disk + 1) % 13)
        assert report["corruption_events"] == 0
        assert report["suspect_stripes"] == 0
        assert "disk_corruption" not in report

    def test_audit_resumes_after_reconstruction(self):
        """Once the rebuild completes (post-reconstruction mode for a
        distributed-sparing layout), the audit resumes from where it
        paused and clears the latent cell; the oracle classifies the
        consumption as detected-and-repaired, never silent."""
        engine, controller, model = build()
        oracle = controller.attach_oracle(
            IntegrityOracle(controller.layout)
        )
        disk, offset = find_cells(controller.layout, Role.DATA, 1)[0]
        model.pollute(disk, offset)
        # Fail a disk outside the corrupt cell's stripe: after the
        # (skipped-ahead) rebuild the stripe has full redundancy, so
        # the resumed audit can reconstruct the cell from its peers.
        layout = controller.layout
        stripe = layout.locate(disk, offset).stripe
        members = {a.disk for a in stripe_units(layout, stripe).all_units()}
        failed = next(
            d for d in range(layout.n) if d not in members and d != disk
        )
        controller.fail_disk(failed)
        scrubber = Scrubber(
            controller,
            MediaErrorMap({}),
            interval_ms=10.0,
            rows=ROWS,
            audit=True,
        )
        scrubber.start()
        engine.schedule(500.0, controller.finish_reconstruction)
        engine.schedule(20_000.0, engine.stop)
        engine.run()
        assert scrubber.stripes_audited > 0
        assert scrubber.audit_mismatches >= 1
        assert model.remaining == 0
        report = oracle.verify()
        assert report["corruption_events"] == 0
        detected = report["disk_corruption"]["detected_and_repaired"]
        assert detected["parity-pollution"] >= 1


class TestAggregateScrub:
    def test_none_when_no_trial_scrubbed(self):
        assert aggregate_scrub([{"scrub": None}, {}]) is None

    def test_sums_counters_and_union_of_keys(self):
        records = [
            {
                "scrub": {
                    "passes_completed": 2,
                    "cells_read": 100,
                    "found": 1,
                    "repaired": 1,
                }
            },
            {
                "scrub": {
                    "passes_completed": 1,
                    "cells_read": 50,
                    "found": 0,
                    "repaired": 0,
                    "stripes_audited": 40,
                    "audit_mismatches": 3,
                    "audit_repairs": 3,
                    "audit_unrepairable": 0,
                }
            },
            {"scrub": None},
        ]
        total = aggregate_scrub(records)
        assert total["trials_reporting"] == 2
        assert total["passes_completed"] == 3
        assert total["cells_read"] == 150
        assert total["stripes_audited"] == 40
        assert total["audit_mismatches"] == 3
