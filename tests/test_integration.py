"""Cross-module integration tests.

These tie together the analytic tools, the planner, and the simulator —
the invariants that make the figure reproductions trustworthy.
"""

import pytest

from repro import (
    AccessSpec,
    ArrayController,
    LogicalAccess,
    Reconstructor,
    SimulationEngine,
    make_layout,
    start_clients,
)
from repro.array.raidops import ArrayMode
from repro.experiments.config import paper_layout
from repro.stats.seekcount import seek_mix_per_access
from repro.stats.summary import SummaryStats
from repro.stats.workingset import average_working_set


def run_clients(
    controller, engine, spec, clients, samples, seed=0, coalesce=None
):
    stats = SummaryStats()

    def on_response(client, access, ms):
        stats.push(ms)
        if stats.count == samples:
            engine.stop()  # exactly once; later strays must not re-stop
        return stats.count < samples

    start_clients(
        controller, spec, on_response, (f"{seed}/{c}" for c in range(clients))
    )
    engine.run()
    return stats


class TestAnalyticVsSimulated:
    """The paper's own cross-check: Figure 4's non-local seek counts must
    equal Figure 3's working set sizes, measured through entirely
    different code paths."""

    @pytest.mark.parametrize(
        "name,size_kb",
        [("pddl", 96), ("datum", 96), ("raid5", 192), ("prime", 48)],
    )
    def test_nonlocal_seeks_equal_working_set(self, name, size_kb):
        layout = paper_layout(name)
        engine = SimulationEngine()
        controller = ArrayController(engine, layout, coalesce=False)
        run_clients(
            controller, engine, AccessSpec(size_kb, False), 6, 250
        )
        measured = seek_mix_per_access(
            controller.disk_stats(), controller.completed_accesses
        ).non_local
        analytic = average_working_set(layout, size_kb // 8, False)
        assert measured == pytest.approx(analytic, rel=0.1)


class TestEndToEndRecovery:
    """Fail, rebuild, and serve — the full PDDL recovery story."""

    def test_full_lifecycle(self):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("pddl", 13, 4))

        # Phase 1: fault-free traffic.
        ff = run_clients(
            controller, engine, AccessSpec(24, False), 4, 150
        )

        # Phase 2: failure + background rebuild under load.
        controller.fail_disk(3)
        recon = Reconstructor(controller, parallel_steps=2, rows=13 * 5)
        recon.start()
        state = {"n": 0}

        def on_response(client, access, ms):
            state["n"] += 1
            return state["n"] < 400 or controller.mode.value == "degraded"

        start_clients(
            controller,
            AccessSpec(24, False),
            on_response,
            (f"x/{c}" for c in range(4)),
            first_id=100,
        )
        engine.run()

        assert recon.finished_ms is not None
        assert controller.mode is ArrayMode.POST_RECONSTRUCTION
        # The failed disk serviced nothing after the failure.
        assert controller.servers[3].stats.operations > 0  # from phase 1
        ops_after = controller.servers[3].stats.operations

        # Phase 3: post-reconstruction traffic leaves it untouched.
        post = run_clients(
            controller, engine, AccessSpec(24, False), 4, 150, seed=9
        )
        assert controller.servers[3].stats.operations == ops_after
        assert post.mean > 0 and ff.mean > 0

    def test_raid5_has_no_recovery_path(self):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("raid5", 13, 13))
        controller.fail_disk(0)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Reconstructor(controller)


class TestDeterminism:
    def test_same_seed_same_simulation(self):
        def run():
            engine = SimulationEngine()
            controller = ArrayController(engine, make_layout("prime", 13, 4))
            stats = run_clients(
                controller, engine, AccessSpec(48, True), 5, 120, seed=7
            )
            return stats.mean, engine.now, engine.events_processed

        assert run() == run()

    def test_different_layouts_differ(self):
        def run(name, k):
            engine = SimulationEngine()
            controller = ArrayController(engine, make_layout(name, 13, k))
            return run_clients(
                controller, engine, AccessSpec(96, False), 5, 120, seed=7
            ).mean

        assert run("datum", 4) != run("raid5", 13)


class TestWorkConservation:
    def test_busy_time_matches_throughput(self):
        """Total disk busy time must equal the sum of service components."""
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("pddl", 13, 4))
        run_clients(controller, engine, AccessSpec(96, False), 8, 200)
        for server in controller.servers:
            s = server.stats
            assert s.busy_ms == pytest.approx(
                s.seek_ms + s.latency_ms + s.transfer_ms
            )
            # A disk can't be busy much longer than the simulation ran
            # (its final request may still be in flight when the stop
            # fires, so allow one service time of slack).
            assert s.busy_ms <= engine.now + 60.0

    def test_all_disks_participate(self):
        engine = SimulationEngine()
        controller = ArrayController(engine, make_layout("pddl", 13, 4))
        run_clients(controller, engine, AccessSpec(96, False), 8, 200)
        assert all(s.operations > 0 for s in controller.disk_stats())

    def test_writes_generate_more_ops_than_reads(self):
        def total_ops(is_write):
            engine = SimulationEngine()
            controller = ArrayController(
                engine, make_layout("raid5", 13, 13), coalesce=False
            )
            run_clients(
                controller, engine, AccessSpec(48, is_write), 4, 150
            )
            operations = sum(s.operations for s in controller.disk_stats())
            return operations / controller.completed_accesses

        assert total_ops(True) > total_ops(False) * 1.5
