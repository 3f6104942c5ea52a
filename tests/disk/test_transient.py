"""Transient I/O errors and the controller's retry/escalation path."""

import pytest

from repro.array.controller import (
    RETRIES,
    RETRY_BACKOFF_BASE_MS,
    RETRY_BACKOFF_CAP_MS,
    ArrayController,
    LogicalAccess,
)
from repro.array.reconstructor import Reconstructor
from repro.disk.drive import TransientErrorModel
from repro.errors import ConfigurationError
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine
from tests.layouts.reference_layout import stripe_units


class TestTransientErrorModel:
    def test_zero_rate_consumes_no_randomness(self):
        # Byte-determinism contract: attaching an inactive model must
        # not shift any downstream draw.
        model = TransientErrorModel(0.0, seed="s")
        assert not any(model.draw() for _ in range(100))
        assert model.draws == 0 and model.injected == 0

    def test_draws_are_seeded_and_counted(self):
        a = TransientErrorModel(0.3, seed="k")
        b = TransientErrorModel(0.3, seed="k")
        outcomes = [a.draw() for _ in range(200)]
        assert outcomes == [b.draw() for _ in range(200)]
        assert a.draws == 200
        assert a.injected == sum(outcomes)
        assert 0 < a.injected < 200

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TransientErrorModel(1.0, seed=0)
        with pytest.raises(ConfigurationError):
            TransientErrorModel(-0.1, seed=0)


class TestRetryPolicy:
    def test_validation(self):
        # The retry budget is constant; capped_exponential leaves its
        # argument checks to callers.
        assert RETRIES >= 0
        assert 0 <= RETRY_BACKOFF_BASE_MS <= RETRY_BACKOFF_CAP_MS


class _AlwaysFail:
    """Transient-error stand-in: every operation on the drive fails, so
    each op fails all of its ``RETRIES + 1`` attempts."""

    def draw(self) -> bool:
        return True


def run_workload(rate, accesses=60, is_write=False, failing_disk=None):
    """``failing_disk`` fails every operation it serves, with retries
    installed."""
    engine = SimulationEngine()
    layout = make_layout("raid5", 5, 5)
    controller = ArrayController(engine, layout)
    if rate > 0 or failing_disk is not None:
        controller.enable_transient_errors(rate, seed=11)
    if failing_disk is not None:
        controller.servers[failing_disk].drive.transient_errors = (
            _AlwaysFail()
        )
    done = []

    def submit(i):
        controller.submit(
            LogicalAccess(i, (i * 3) % 40, 1, is_write),
            lambda a, ms: done.append(ms),
        )

    for i in range(accesses):
        engine.schedule_at(i * 5.0, lambda i=i: submit(i))
    engine.run()
    return controller, done


class TestControllerRecovery:
    def test_retries_absorb_transient_failures(self):
        controller, done = run_workload(0.05)
        stats = controller.io_stats
        assert len(done) == 60  # every access completed
        assert stats.transient_failures > 0
        assert stats.retries > 0
        # The default budget (3 retries at 5% rate) absorbs everything:
        # no read ever needed on-the-fly reconstruction.
        assert stats.escalated_reads == 0

    def test_exhausted_reads_escalate_to_reconstruction(self):
        controller, done = run_workload(0.0, failing_disk=2)
        stats = controller.io_stats
        assert len(done) == 60
        assert stats.escalated_reads > 0
        # Each escalated read, and each repair rewrite given up on the
        # failing disk, spent the whole budget.
        assert stats.retries == RETRIES * (
            stats.escalated_reads + stats.raw_give_ups
        )
        # Escalation repairs the failing sector with a rewrite.
        assert stats.repaired_sectors > 0

    def test_exhausted_writes_remap_instead_of_escalating(self):
        controller, done = run_workload(0.0, failing_disk=2, is_write=True)
        stats = controller.io_stats
        assert len(done) == 60
        assert stats.remapped_writes > 0

    def test_errors_cost_time_but_not_correctness(self):
        clean_controller, clean = run_workload(0.0)
        noisy_controller, noisy = run_workload(0.10)
        assert len(clean) == len(noisy) == 60
        assert sum(noisy) > sum(clean)  # retries + backoff cost time

    def test_disabled_injection_leaves_io_stats_empty(self):
        controller, done = run_workload(0.0)
        assert controller.io_stats.to_dict() == {
            "transient_failures": 0,
            "timeouts": 0,
            "retries": 0,
            "remapped_writes": 0,
            "escalated_reads": 0,
            "repaired_sectors": 0,
            "escalation_failures": 0,
            "raw_give_ups": 0,
        }


class TestEscalationDuringReplacementRebuild:
    @pytest.mark.parametrize(
        "name, width", [("raid5", 13), ("parity-declustering", 4)]
    )
    def test_unrebuilt_replacement_cells_are_no_redundancy(self, name, width):
        # Disk 0 fails and rebuilds onto a replacement spindle.  A client
        # read of a unit sharing a stripe with cell (0, 0) fails every
        # attempt and escalates before the rebuild reaches row 0 (its
        # read of the same disk fails too, and gives up after the
        # client's last attempt): the replacement's cell holds nothing
        # valid yet, so the sector must count as an escalation failure,
        # not be "repaired" from it.
        engine = SimulationEngine()
        layout = make_layout(name, 13, width)
        controller = ArrayController(engine, layout)
        controller.fail_disk(0)
        recon = Reconstructor(controller, rows=13, allow_replacement=True)
        controller.enter_reconstruction(recon.is_rebuilt)
        controller.enable_transient_errors(0.0, seed=0)
        stripe = layout.locate(0, 0).stripe
        position, cell = next(
            (j, a)
            for j, a in enumerate(stripe_units(layout, stripe).data)
            if a.disk != 0
        )
        controller.servers[cell.disk].drive.transient_errors = _AlwaysFail()
        unit = layout.data_units_of_stripe(stripe)[position]
        done = []
        controller.submit(
            LogicalAccess(0, unit, 1, False),
            lambda a, ms: done.append(ms),
        )
        recon.start()
        engine.run()
        stats = controller.io_stats
        assert len(done) == 1
        assert stats.escalated_reads == 1
        assert stats.escalation_failures == 1
        assert stats.repaired_sectors == 0
        assert recon.finished_ms is not None
