"""Tests for background reconstruction."""

import pytest

from repro.array.controller import ArrayController, LogicalAccess
from repro.array.raidops import ArrayMode
from repro.array.reconstructor import Reconstructor
from repro.errors import SimulationError
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine


def build_failed(rows=13):
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout("pddl", 13, 4))
    controller.fail_disk(0)
    return engine, controller


class TestRebuild:
    def test_completes_and_flips_mode(self):
        engine, controller = build_failed()
        finished = {}
        recon = Reconstructor(
            controller,
            rows=13,
            on_finished=lambda ms: finished.update(ms=ms),
        )
        recon.start()
        engine.run()
        assert recon.finished_ms is not None
        assert finished["ms"] == recon.duration_ms
        assert controller.mode is ArrayMode.POST_RECONSTRUCTION
        # One period: 12 lost stripe units (one row holds the spare).
        assert recon.steps_completed == 12

    def test_never_touches_failed_disk(self):
        engine, controller = build_failed()
        Reconstructor(controller, rows=13).start()
        engine.run()
        assert controller.servers[0].stats.operations == 0

    def test_parallel_steps_faster(self):
        def duration(parallel):
            engine, controller = build_failed()
            recon = Reconstructor(controller, parallel_steps=parallel, rows=26)
            recon.start()
            engine.run()
            return recon.duration_ms

        assert duration(4) < duration(1)

    def test_concurrent_with_client_load(self):
        engine, controller = build_failed()
        responses = []

        def on_complete(access, ms):
            responses.append(ms)

        controller.submit(LogicalAccess(1, 0, 6, False), on_complete)
        recon = Reconstructor(controller, rows=13)
        recon.start()
        engine.run()
        assert responses
        assert recon.finished_ms is not None

    def test_duration_before_finish_raises(self):
        engine, controller = build_failed()
        recon = Reconstructor(controller, rows=13)
        with pytest.raises(SimulationError):
            _ = recon.duration_ms

    def test_double_start_rejected(self):
        engine, controller = build_failed()
        recon = Reconstructor(controller, rows=13)
        recon.start()
        with pytest.raises(SimulationError):
            recon.start()

    def test_requires_failed_disk(self):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("pddl", 13, 4))
        with pytest.raises(SimulationError):
            Reconstructor(controller)

    def test_bad_parallelism(self):
        engine, controller = build_failed()
        with pytest.raises(SimulationError):
            Reconstructor(controller, parallel_steps=0)

    def test_replacement_rebuild_for_layout_without_sparing(self):
        engine = SimulationEngine()
        controller = ArrayController(
            engine, make_layout("parity-declustering", 13, 4)
        )
        controller.fail_disk(0)
        recon = Reconstructor(controller, rows=13)
        recon.start()
        engine.run()
        # The rebuild wrote the failed disk's units back to the
        # replacement spindle and the array is whole again.
        assert recon.finished_ms is not None
        assert recon.steps_completed == 13
        assert controller.mode is ArrayMode.FAULT_FREE
        assert controller.failed_disk is None
        assert controller.servers[0].stats.operations == 13

    def test_read_tally_balanced_over_survivors(self):
        engine, controller = build_failed()
        Reconstructor(controller, rows=13).start()
        engine.run()
        reads = [
            s.stats.operations
            for i, s in enumerate(controller.servers)
            if i != 0
        ]
        # Satisfactory PDDL: every survivor does k-1 = 3 reads plus its
        # share of the 12 spare writes.
        assert max(reads) - min(reads) <= 1


class TestProgress:
    def test_progress_and_fraction_track_the_sweep(self):
        engine, controller = build_failed()
        fractions = []
        recon = Reconstructor(
            controller,
            rows=13,
            on_step=lambda r: fractions.append(
                (r.steps_completed, r.fraction_complete)
            ),
        )
        assert recon.steps_completed == 0
        assert recon.fraction_complete == 0.0
        assert recon.total_steps == 12
        recon.start()
        engine.run()
        assert recon.steps_completed == 12
        assert recon.fraction_complete == 1.0
        assert fractions == [(i + 1, (i + 1) / 12) for i in range(12)]

    def test_rebuild_frontier_grows_monotonically(self):
        engine, controller = build_failed()
        offsets_when_stepped = []
        recon = Reconstructor(
            controller,
            rows=13,
            on_step=lambda r: offsets_when_stepped.append(
                sum(r.is_rebuilt(o) for o in range(13))
            ),
        )
        recon.start()
        engine.run()
        assert offsets_when_stepped == sorted(offsets_when_stepped)


class TestThrottle:
    def test_throttle_slows_the_rebuild(self):
        def duration(throttle_ms):
            engine, controller = build_failed()
            recon = Reconstructor(
                controller, rows=26, throttle_ms=throttle_ms
            )
            recon.start()
            engine.run()
            assert recon.steps_completed == recon.total_steps
            return recon.duration_ms

        unthrottled = duration(0.0)
        throttled = duration(20.0)
        # 24 steps re-issued through one slot: at least 23 idle gaps.
        assert throttled >= unthrottled + 20.0 * 10

    def test_negative_throttle_rejected(self):
        engine, controller = build_failed()
        with pytest.raises(SimulationError):
            Reconstructor(controller, throttle_ms=-1.0)
