"""ArrayLifecycle: the four-regime state machine over a live controller."""

import pytest

from repro.array.controller import ArrayController
from repro.array.raidops import ArrayMode
from repro.errors import SimulationError
from repro.faults import (
    ArrayLifecycle,
    FaultScenario,
    evaluate_second_failure,
)
from repro.layouts import make_layout
from repro.sim.engine import SimulationEngine

ALL_LAYOUTS = ("pddl", "datum", "prime", "parity-declustering", "raid5")


def build(layout_name="pddl", n=13, k=4):
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout(layout_name, n, k))
    return engine, controller


def run_lifecycle(layout_name="pddl", **scenario_kwargs):
    scenario_kwargs.setdefault("fault_time_ms", 100.0)
    scenario_kwargs.setdefault("rebuild_rows", 13)
    engine, controller = build(layout_name)
    lifecycle = ArrayLifecycle(
        controller, FaultScenario(**scenario_kwargs)
    )
    lifecycle.arm()
    engine.run()
    return engine, controller, lifecycle


class TestTransitions:
    def test_traverses_all_four_regimes(self):
        engine, controller, lifecycle = run_lifecycle(
            degraded_dwell_ms=50.0
        )
        modes = [mode for mode, _ in lifecycle.transitions]
        assert modes == [
            "fault-free",
            "degraded",
            "reconstruction",
            "post-reconstruction",
        ]
        assert lifecycle.complete
        assert controller.mode is ArrayMode.POST_RECONSTRUCTION

    def test_timestamps_are_monotonic_and_honor_the_dwell(self):
        _, _, lifecycle = run_lifecycle(degraded_dwell_ms=75.0)
        times = [t for _, t in lifecycle.transitions]
        assert times == sorted(times)
        by_mode = dict(lifecycle.transitions)
        assert by_mode["degraded"] == 100.0
        assert by_mode["reconstruction"] == 175.0
        assert by_mode["post-reconstruction"] > 175.0

    def test_transition_hook_fires_in_order(self):
        seen = []
        engine, controller = build()
        lifecycle = ArrayLifecycle(
            controller,
            FaultScenario(fault_time_ms=10.0, rebuild_rows=13),
            on_transition=lambda mode, t: seen.append(mode),
        )
        lifecycle.arm()
        engine.run()
        assert seen == [
            ArrayMode.DEGRADED,
            ArrayMode.RECONSTRUCTION,
            ArrayMode.POST_RECONSTRUCTION,
        ]

    def test_rebuild_step_hook_tracks_progress(self):
        fractions = []
        engine, controller = build()
        lifecycle = ArrayLifecycle(
            controller,
            FaultScenario(fault_time_ms=10.0, rebuild_rows=13),
            on_rebuild_step=lambda r: fractions.append(r.fraction_complete),
        )
        lifecycle.arm()
        engine.run()
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert len(fractions) == lifecycle.reconstructor.total_steps

    def test_replacement_rebuild_without_sparing(self):
        # Layouts without spare space rebuild onto a replacement spindle
        # and the controller ends back in fault-free mode; the lifecycle
        # still records the post-reconstruction regime.
        engine, controller, lifecycle = run_lifecycle(
            "parity-declustering", degraded_dwell_ms=25.0
        )
        modes = [mode for mode, _ in lifecycle.transitions]
        assert modes[-1] == "post-reconstruction"
        assert lifecycle.complete
        assert controller.mode is ArrayMode.FAULT_FREE
        assert controller.failed_disk is None


class TestModeAt:
    def test_mode_at_walks_the_transition_log(self):
        _, _, lifecycle = run_lifecycle(degraded_dwell_ms=50.0)
        rebuilt_at = dict(lifecycle.transitions)["post-reconstruction"]
        assert lifecycle.mode_at(0.0) == "fault-free"
        assert lifecycle.mode_at(99.9) == "fault-free"
        assert lifecycle.mode_at(100.0) == "degraded"
        assert lifecycle.mode_at(149.9) == "degraded"
        assert lifecycle.mode_at(150.0) == "reconstruction"
        assert lifecycle.mode_at(rebuilt_at + 1) == "post-reconstruction"


class TestRebuildProgress:
    def test_rebuild_progress_before_and_after_the_sweep(self):
        engine, controller = build()
        lifecycle = ArrayLifecycle(
            controller, FaultScenario(fault_time_ms=10.0, rebuild_rows=13)
        )
        assert lifecycle.rebuild_progress() == {
            "duration_ms": None,
            "steps_completed": 0,
            "total_steps": 0,
            "skipped_steps": 0,
            "fraction": 0.0,
        }
        lifecycle.arm()
        engine.run()
        recon = lifecycle.reconstructor
        progress = lifecycle.rebuild_progress()
        assert progress["duration_ms"] == recon.duration_ms > 0
        assert progress["steps_completed"] == recon.total_steps > 0
        assert progress["fraction"] == 1.0


class TestGuards:
    def test_requires_a_fault_free_controller(self):
        engine, controller = build()
        controller.fail_disk(0)
        with pytest.raises(SimulationError):
            ArrayLifecycle(
                controller, FaultScenario(fault_time_ms=1.0)
            )

    def test_rejects_double_arm(self):
        engine, controller = build()
        lifecycle = ArrayLifecycle(
            controller, FaultScenario(fault_time_ms=1.0, rebuild_rows=13)
        )
        lifecycle.arm()
        with pytest.raises(SimulationError):
            lifecycle.arm()


class TestSecondFailure:
    @pytest.mark.parametrize("layout_name", ALL_LAYOUTS)
    def test_every_layout_terminates_and_classifies(self, layout_name):
        # A second whole-disk failure during the degraded dwell (empty
        # rebuild frontier): the run must terminate (no deadlock), end in
        # a definite state, and agree with the exact evaluation.
        engine, controller = build(layout_name)
        lifecycle = ArrayLifecycle(
            controller,
            FaultScenario(
                fault_time_ms=100.0,
                failed_disk=0,
                second_fault_time_ms=105.0,
                second_failed_disk=5,
                degraded_dwell_ms=10.0,
                rebuild_rows=13,
            ),
        )
        lifecycle.arm()
        engine.run()  # returning at all proves no deadlock
        expected = evaluate_second_failure(
            make_layout(layout_name, 13, 4), 0, 5, frozenset(), 13
        )
        assert lifecycle.data_loss == expected.data_loss
        assert len(lifecycle.second_faults) == 1
        record = lifecycle.second_faults[0]
        assert record["disk"] == 5
        assert record["during"] == "degraded"
        if expected.data_loss:
            assert lifecycle.lost_units == expected.lost_units
            assert controller.mode is ArrayMode.DATA_LOSS
            assert controller.data_loss_reason
            assert lifecycle.transitions[-1][0] == "data-loss"
            from repro.array.controller import LogicalAccess

            with pytest.raises(SimulationError):
                controller.submit(
                    LogicalAccess(99, 0, 1, False), lambda a, t: None
                )
        else:
            assert lifecycle.complete
            assert lifecycle.lost_units == 0

    def test_raid5_second_failure_is_always_fatal(self):
        engine, controller = build("raid5")
        lifecycle = ArrayLifecycle(
            controller,
            FaultScenario(
                fault_time_ms=100.0,
                failed_disk=0,
                second_fault_time_ms=101.0,
                second_failed_disk=7,
                rebuild_rows=13,
            ),
        )
        lifecycle.arm()
        engine.run()
        assert lifecycle.data_loss
        # Every un-rebuilt row loses two members of the same stripe.
        assert lifecycle.lost_units > 0
        assert lifecycle.data_loss_ms is not None

    def test_survivable_mid_rebuild_hit_folds_into_the_sweep(self):
        # On 13-disk PDDL with the first fault at 10 ms and rebuild from
        # 10 ms, a second failure at 500 ms lands mid-sweep; disk pairs
        # whose shared stripes are all rebuilt survive and the sweep
        # absorbs the extra repair steps.
        for second in range(1, 13):
            if second == 2:
                continue
            engine, controller = build()
            lifecycle = ArrayLifecycle(
                controller,
                FaultScenario(
                    fault_time_ms=10.0,
                    failed_disk=2,
                    second_fault_time_ms=500.0,
                    second_failed_disk=second,
                    rebuild_rows=26,
                ),
            )
            lifecycle.arm()
            engine.run()
            assert lifecycle.data_loss or lifecycle.complete
            if lifecycle.data_loss:
                continue
            recon = lifecycle.reconstructor
            # The sweep grew past the first failure's own 24 steps.
            assert recon.total_steps > 24
            assert recon.steps_completed == recon.total_steps
            assert lifecycle.second_faults[0]["during"] in (
                "degraded",
                "reconstruction",
            )
            return
        pytest.fail("no survivable mid-rebuild second failure found")

    def test_post_reconstruction_failure_starts_a_new_cycle(self):
        # After PDDL's rebuild completes, a second failure consumes the
        # relocated mapping and rebuilds onto a replacement spindle.
        engine, controller = build()
        lifecycle = ArrayLifecycle(
            controller,
            FaultScenario(
                fault_time_ms=10.0,
                failed_disk=2,
                second_fault_time_ms=100000.0,
                second_failed_disk=7,
                rebuild_rows=26,
            ),
        )
        lifecycle.arm()
        engine.run()
        assert not lifecycle.data_loss
        modes = [mode for mode, _ in lifecycle.transitions]
        assert modes == [
            "fault-free",
            "degraded",
            "reconstruction",
            "post-reconstruction",
            "degraded",
            "reconstruction",
            "post-reconstruction",
        ]
        assert lifecycle.second_faults[0]["during"] == "post-reconstruction"
        # The replacement-spindle cycle ends with a working array.
        assert controller.mode is ArrayMode.FAULT_FREE
        assert controller.failed_disk is None

    def test_fatal_during_dwell_never_starts_a_rebuild(self):
        engine, controller = build("raid5")
        lifecycle = ArrayLifecycle(
            controller,
            FaultScenario(
                fault_time_ms=10.0,
                failed_disk=0,
                second_fault_time_ms=15.0,
                second_failed_disk=1,
                degraded_dwell_ms=50.0,
                rebuild_rows=13,
            ),
        )
        lifecycle.arm()
        engine.run()
        assert lifecycle.data_loss
        assert lifecycle.reconstructor is None
        modes = [mode for mode, _ in lifecycle.transitions]
        assert modes == ["fault-free", "degraded", "data-loss"]

    def test_second_failure_outcome_is_deterministic(self):
        def run_once():
            engine, controller = build()
            lifecycle = ArrayLifecycle(
                controller,
                FaultScenario(
                    fault_time_ms=10.0,
                    failed_disk=2,
                    second_fault_time_ms=500.0,
                    second_failed_disk=7,
                    rebuild_rows=26,
                ),
            )
            lifecycle.arm()
            engine.run()
            return (
                lifecycle.transitions,
                lifecycle.second_faults,
                lifecycle.lost_units,
            )

        assert run_once() == run_once()
