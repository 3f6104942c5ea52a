"""Integration tests for the array controller on the event engine."""


import pytest

import repro.array.controller as controller_module
from repro.array.controller import ArrayController, LogicalAccess
from repro.array.raidops import ArrayMode
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.nemesistrial import _SCRUB_GENERATION_STRIDE
from repro.faults.corruption import CorruptionModel
from repro.faults.nemesis import NemesisSchedule
from repro.layouts import make_layout
from repro.runner import NemesisTrialSpec, canonical_json, execute_spec
from repro.sim.engine import SimulationEngine
from tests.runner.record_digests import pinned_specs


def build(layout_name="pddl", n=13, k=4, **kwargs):
    engine = SimulationEngine()
    controller = ArrayController(engine, make_layout(layout_name, n, k), **kwargs)
    return engine, controller


def run_one(engine, controller, access):
    done = {}

    def on_complete(acc, response):
        done["response"] = response

    controller.submit(access, on_complete)
    engine.run()
    assert "response" in done
    return done["response"]


def total_operations(controller):
    return sum(stats.operations for stats in controller.disk_stats())


class TestBasicOperation:
    def test_single_read_completes(self):
        engine, controller = build()
        response = run_one(
            engine, controller, LogicalAccess(1, 0, 12, is_write=False)
        )
        assert 0 < response < 200
        assert controller.completed_accesses == 1

    def test_single_write_takes_two_phases(self):
        engine, controller = build()
        read_resp = run_one(
            engine, controller, LogicalAccess(1, 0, 1, is_write=False)
        )
        engine2, controller2 = build()
        write_resp = run_one(
            engine2, controller2, LogicalAccess(1, 0, 1, is_write=True)
        )
        # A small write (pre-read then write) must take longer than a read.
        assert write_resp > read_resp

    def test_concurrent_accesses_interleave(self):
        engine, controller = build()
        responses = []
        for i in range(4):
            controller.submit(
                LogicalAccess(i, i * 100, 6, is_write=False),
                lambda acc, ms: responses.append(ms),
            )
        engine.run()
        assert len(responses) == 4

    def test_out_of_range_access_rejected(self):
        engine, controller = build()
        too_far = controller.addressable_data_units
        with pytest.raises(ConfigurationError):
            controller.submit(
                LogicalAccess(1, too_far, 1, False), lambda a, m: None
            )

    @pytest.mark.parametrize("failed", [False, True])
    @pytest.mark.parametrize("first, count", [(-5, 2), (3, 0), (3, -1)])
    def test_empty_or_negative_access_rejected(self, failed, first, count):
        engine, controller = build()
        if failed:
            controller.fail_disk(0)
        with pytest.raises(ConfigurationError):
            controller.submit(
                LogicalAccess(1, first, count, False), lambda a, m: None
            )
        assert not controller._in_flight
        engine.run()
        assert total_operations(controller) == 0

    def test_duplicate_access_id_rejected(self):
        engine, controller = build()
        controller.submit(LogicalAccess(1, 0, 1, False), lambda a, m: None)
        with pytest.raises(SimulationError):
            controller.submit(LogicalAccess(1, 8, 1, False), lambda a, m: None)

    def test_stats_accumulate(self):
        engine, controller = build(coalesce=False)
        run_one(engine, controller, LogicalAccess(1, 0, 12, False))
        assert total_operations(controller) == 12

    def test_coalescing_reduces_operations(self):
        engine, controller = build(coalesce=True)
        run_one(engine, controller, LogicalAccess(1, 0, 12, False))
        merged = total_operations(controller)
        # 12 PDDL units span >1 row, so some disk holds adjacent offsets.
        assert merged < 12

    def test_coalesced_request_covers_same_sectors(self):
        # The same access must transfer the same total sectors either way.
        def total_sectors(coalesce):
            engine, controller = build(coalesce=coalesce)
            counted = []
            original_factories = []
            for server in controller.servers:
                orig = server.drive.service

                def wrapped(request, now_ms, orig=orig):
                    counted.append(request.sectors)
                    return orig(request, now_ms)

                server.drive.service = wrapped
            run_one(engine, controller, LogicalAccess(1, 0, 12, False))
            return sum(counted)

        assert total_sectors(True) == total_sectors(False)


class TestFailureModes:
    def test_fail_disk_switches_mode(self):
        engine, controller = build()
        controller.fail_disk(3)
        assert controller.mode is ArrayMode.DEGRADED
        assert controller.servers[3].failed

    def test_degraded_read_avoids_failed_disk(self):
        engine, controller = build()
        controller.fail_disk(0)
        run_one(engine, controller, LogicalAccess(1, 0, 36, False))
        assert controller.servers[0].stats.operations == 0

    def test_post_reconstruction_mode(self):
        engine, controller = build()
        controller.fail_disk(0)
        controller.finish_reconstruction()
        assert controller.mode is ArrayMode.POST_RECONSTRUCTION
        run_one(engine, controller, LogicalAccess(1, 0, 12, False))
        assert controller.servers[0].stats.operations == 0

    def test_relocated_repair_cycle_returns_to_service(self):
        """fail, finish (spare relocation), a second failure against the
        relocated mapping, replacement rebuild, finish: the array is
        fault-free on a RelocatedView, and both reads (the direct path)
        and writes plan against the view."""
        from repro.layouts.relocated import RelocatedView

        engine, controller = build()
        controller.fail_disk(0)
        controller.finish_reconstruction()
        controller.relocate_and_fail(5)
        controller.install_replacement()
        controller.finish_reconstruction()
        assert controller.mode is ArrayMode.FAULT_FREE
        assert isinstance(controller.plan_layout, RelocatedView)
        run_one(engine, controller, LogicalAccess(1, 0, 36, is_write=False))
        run_one(engine, controller, LogicalAccess(2, 5, 12, is_write=True))
        assert controller.completed_accesses == 2
        assert controller.servers[0].stats.operations == 0
        assert controller.servers[5].stats.operations > 0

    def test_finish_without_failure_rejected(self):
        engine, controller = build()
        with pytest.raises(SimulationError):
            controller.finish_reconstruction()

    def test_invalid_disk(self):
        engine, controller = build()
        with pytest.raises(ConfigurationError):
            controller.fail_disk(13)

    def test_direct_submit_to_failed_server_rejected(self):
        from repro.disk.drive import DiskRequest

        engine, controller = build()
        controller.fail_disk(2)
        with pytest.raises(SimulationError):
            controller.servers[2].submit(DiskRequest(0, 16, False, 1))


class TestStripePeersAfterReconstruction:
    """Known defect: in post-reconstruction mode the hedge, escalation
    and audit peer lookup ignores spare space.  On PDDL with disk 0
    rebuilt, the unit of cell (0, 3) lives in spare cell (3, 3), and the
    stripe of (0, 3) is data (5, 3), (6, 3), (0, 3) and check (1, 3).
    Fixing it moves the fail-slow sweep's hedge counts and the defended
    benchmark digests, so these cases stay strict xfails until a
    benchmark change regenerates them."""

    @staticmethod
    def _rebuilt_onto_spares():
        _, controller = build()
        controller.fail_disk(0)
        controller.finish_reconstruction()
        return controller

    @pytest.mark.xfail(
        strict=True,
        reason="a member rebuilt into its spare counts as lost",
    )
    def test_member_rebuilt_into_a_spare_is_a_peer(self):
        controller = self._rebuilt_onto_spares()
        assert controller._stripe_peers(1, 3) == [(5, 3), (6, 3), (3, 3)]

    @pytest.mark.xfail(
        strict=True,
        reason="a spare cell holding a rebuilt unit counts as empty",
    )
    def test_spare_holding_a_rebuilt_unit_has_peers(self):
        controller = self._rebuilt_onto_spares()
        assert controller._stripe_peers(3, 3) == [(5, 3), (6, 3), (1, 3)]


class TestSchedulerEffect:
    def test_sstf_beats_fifo_under_load(self):
        """SSTF must not be slower than FIFO for a seek-heavy burst."""
        def total_time(scheduler):
            engine, controller = build(scheduler_name=scheduler)
            done = []
            for i in range(24):
                controller.submit(
                    LogicalAccess(i, (i * 7919) % 100_000, 1, False),
                    lambda a, m: done.append(m),
                )
            engine.run()
            return engine.now

        assert total_time("sstf") <= total_time("fifo") * 1.05


class TestConfigErrors:
    def test_bad_stripe_unit(self):
        engine = SimulationEngine()
        with pytest.raises(ConfigurationError):
            ArrayController(
                engine, make_layout("pddl", 13, 4), stripe_unit_kb=0
            )


class TestRawSubmission:
    def test_raw_callback_fires(self):
        engine, controller = build()
        done = []
        controller.submit_raw(0, 0, False, 999, lambda: done.append(1))
        engine.run()
        assert done == [1]


class TestBackgroundIdBlocks:
    """Background traffic kinds never share an access id: an equal id on
    one disk would count the second operation as *local* to the first."""

    @staticmethod
    def blocks():
        bases = sorted(
            (value, name)
            for name, value in vars(controller_module).items()
            if name.endswith("_ID_BASE")
        )
        ends = [value for value, _ in bases[1:]] + [2 * bases[-1][0]]
        return {
            name: (value, end) for (value, name), end in zip(bases, ends)
        }

    def test_six_kinds_own_pairwise_disjoint_blocks(self):
        blocks = self.blocks()
        assert set(blocks) == {
            "REBUILD_ID_BASE",
            "RESYNC_ID_BASE",
            "ESCALATION_ID_BASE",
            "HEDGE_ID_BASE",
            "VERIFY_ID_BASE",
            "SCRUB_ID_BASE",
        }
        spans = sorted(blocks.values())
        assert spans[0][0] >= 1 << 40  # far above any client access id
        for (start, end), (next_start, _) in zip(spans, spans[1:]):
            assert start < end <= next_start

    def test_nemesis_scrub_generations_stay_inside_the_scrub_block(self):
        start, end = self.blocks()["SCRUB_ID_BASE"]
        # A trial starts one scrubber generation, plus at most one more
        # per schedule event (crash restarts, scrub-off windows ending).
        schedules = [
            NemesisSchedule.draw(
                seed, n_disks=13, rows=26,
                max_failslow=13, max_corruption_bursts=13,
            )
            for seed in range(200)
        ]
        generations = 1 + max(len(s.events) for s in schedules)
        assert start + generations * _SCRUB_GENERATION_STRIDE <= end
        # A generation takes one id per disk per pass, plus its base.
        interval = NemesisTrialSpec.scrub_interval_ms
        horizon = max(s.horizon_ms for s in schedules)
        passes = int(horizon // interval) + 1
        assert passes * 13 + 1 < _SCRUB_GENERATION_STRIDE


def handlers(controller):
    """The completion handlers the servers call, as a set."""
    return {server._on_done for server in controller.servers}


#: Attachments that put every server on the defended handler.
ATTACH = {
    "transient": lambda c: c.enable_transient_errors(0.0, seed="t"),
    "hedge": lambda c: c.enable_hedging(30.0),
    "corruption": lambda c: c.attach_corruption(
        CorruptionModel(c.layout.n, 100, seed="t")
    ),
}


class TestCompletionHandlerSelection:
    def test_undefended_array_completes_through_the_core(self):
        _engine, controller = build()
        assert handlers(controller) == {controller._op_done}

    @pytest.mark.parametrize("attachment", sorted(ATTACH))
    def test_each_defense_switches_every_server(self, attachment):
        _engine, controller = build()
        ATTACH[attachment](controller)
        assert handlers(controller) == {controller._request_done}

    def test_an_attached_corruption_model_keeps_the_defended_handler(self):
        _engine, controller = build()
        ATTACH["corruption"](controller)
        ATTACH["transient"](controller)
        ATTACH["hedge"](controller)
        assert handlers(controller) == {controller._request_done}

    def test_ops_issued_under_the_core_complete_under_the_defended(self):
        """Nemesis storms enable transient errors mid-run: the ops
        already in flight complete through the defended handler,
        unchanged."""

        def responses(switch_at_ms):
            engine, controller = build()
            done = {}
            for access_id in range(12):
                controller.submit(
                    LogicalAccess(access_id, 7 * access_id, 5, False),
                    lambda access, ms: done.setdefault(access.access_id, ms),
                )
            if switch_at_ms is not None:
                engine.schedule(
                    switch_at_ms,
                    lambda: controller.enable_transient_errors(0.0, "t"),
                )
            engine.run()
            return done

        assert responses(5.0) == responses(None)
        assert len(responses(None)) == 12


#: Pinned specs that enable no retries, hedging or corruption model.
UNDEFENDED_PINS = [
    "response-ff-read",
    "response-f1-read",
    "response-post-read",
    "response-f1-write",
    "response-f1-read-uncoalesced",
    "lifecycle-oracle",
    "crash",
    "openloop-rebuild",
]


class TestDefendedHandlerIsTheReference:
    """With nothing attached, the defended handler runs none of its steps
    and ends in the core: forcing it onto every server must give the
    record the core gives."""

    @pytest.mark.parametrize("name", UNDEFENDED_PINS)
    def test_forced_defended_handler_gives_the_same_record(
        self, name, monkeypatch
    ):
        spec = pinned_specs()[name]
        core = canonical_json(execute_spec(spec))
        calls = []
        request_done = ArrayController._request_done
        init = ArrayController.__init__

        def counted(self, disk, request, failed):
            calls.append(disk)
            request_done(self, disk, request, failed)

        def defended_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for server in self.servers:
                server._on_done = self._request_done

        monkeypatch.setattr(ArrayController, "_request_done", counted)
        monkeypatch.setattr(ArrayController, "__init__", defended_init)
        assert canonical_json(execute_spec(spec)) == core
        assert calls
