"""The controller's request coalescer and the phase invariant it relies on.

``ArrayController._requests`` builds every client-access ``DiskRequest``:
the direct read path and each planned phase both go through it.
It groups cells by disk alone, which is only right because every phase
``plan_access`` emits is all reads or all writes.  These tests pin that
invariant over every registered layout, mode and frontier, and pin
``_requests`` itself to a naive reference coalescer.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.array.controller import ArrayController, LogicalAccess
from repro.array.raidops import ArrayMode, plan_access
from repro.disk.drive import DiskRequest
from repro.experiments.config import layout_for
from repro.layouts.registry import available_layouts
from repro.sim.engine import SimulationEngine

_LAYOUTS = {name: layout_for(name) for name in available_layouts()}

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_requests(cells, is_write, access_id, tag, unit, coalesce):
    """Group by disk in first-seen order, sort, merge contiguous offsets;
    one request per cell when coalescing is off."""
    if coalesce:
        groups = {}
        for disk, offset in cells:
            groups.setdefault(disk, []).append(offset)
        runs = []
        for disk, offsets in groups.items():
            for offset in sorted(offsets):
                if runs and runs[-1][0] == disk and offset == runs[-1][2] + 1:
                    runs[-1][2] = offset
                else:
                    runs.append([disk, offset, offset])
    else:
        runs = [[disk, offset, offset] for disk, offset in cells]
    return [
        (
            disk,
            DiskRequest(
                first * unit, (last - first + 1) * unit, is_write,
                access_id, tag,
            ),
        )
        for disk, first, last in runs
    ]


def controller_for(layout, coalesce=True):
    return ArrayController(SimulationEngine(), layout, coalesce=coalesce)


@_SETTINGS
@given(
    name=st.sampled_from(sorted(_LAYOUTS)),
    mode=st.sampled_from(
        [
            ArrayMode.FAULT_FREE,
            ArrayMode.DEGRADED,
            ArrayMode.RECONSTRUCTION,
            ArrayMode.POST_RECONSTRUCTION,
        ]
    ),
    is_write=st.booleans(),
    data=st.data(),
)
def test_every_planned_phase_is_all_reads_or_all_writes(
    name, mode, is_write, data
):
    layout = _LAYOUTS[name]
    assume(mode is not ArrayMode.POST_RECONSTRUCTION or layout.has_sparing)
    first_unit = data.draw(
        st.integers(0, 3 * layout.data_units_per_period), label="first_unit"
    )
    unit_count = data.draw(
        st.integers(1, 3 * layout.data_per_stripe + 2), label="unit_count"
    )
    failed_disk = None
    rebuilt = None
    if mode is not ArrayMode.FAULT_FREE:
        failed_disk = data.draw(st.integers(0, layout.n - 1), label="failed")
    if mode is ArrayMode.RECONSTRUCTION:
        frontier = data.draw(
            st.frozensets(st.integers(0, 4 * layout.period)), label="frontier"
        )
        rebuilt = frontier.__contains__
    plan = plan_access(
        layout,
        first_unit,
        unit_count,
        is_write,
        mode=mode,
        failed_disk=failed_disk,
        rebuilt=rebuilt,
    )
    controller = controller_for(layout)
    for index, phase in enumerate(plan.phases):
        kinds = {op.is_write for op in phase}
        assert len(kinds) <= 1, (name, mode, index, phase)
        if not phase:
            continue
        # The phase's requests are exactly the reference coalescer's.
        cells = [(op.disk, op.offset) for op in phase]
        assert controller._requests(
            phase, phase[0].is_write, 7, index
        ) == reference_requests(
            cells, phase[0].is_write, 7, index,
            controller.stripe_unit_sectors, coalesce=True,
        )


@_SETTINGS
@given(
    cells=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 40)),
        min_size=1,
        max_size=30,
        unique=True,
    ),
    is_write=st.booleans(),
    access_id=st.integers(0, 1 << 20),
    tag=st.integers(0, 3),
    coalesce=st.booleans(),
)
def test_requests_match_naive_reference(
    cells, is_write, access_id, tag, coalesce
):
    controller = controller_for(_LAYOUTS["pddl"], coalesce=coalesce)
    assert controller._requests(
        cells, is_write, access_id, tag
    ) == reference_requests(
        cells, is_write, access_id, tag,
        controller.stripe_unit_sectors, coalesce,
    )


class _OracleLog:
    """Records the oracle calls a client read makes."""

    def __init__(self):
        self.reconstructed = []

    def check_reconstructed_read(self, unit):
        self.reconstructed.append(unit)


def issuing_controller(layout, mode, second_failure, planned):
    """A controller in ``mode`` whose servers record what they are sent.

    Disk 0 is the failed one; in reconstruction mode the rebuild frontier
    has passed the even offsets (onto a replacement spindle when the
    layout has no spare space); ``second_failure`` also fails disk 1.
    Enabled retries send reads through ``plan_access`` and
    ``_launch_phase`` instead of the direct path.
    """
    controller = controller_for(layout)
    if mode is not ArrayMode.FAULT_FREE:
        controller.fail_disk(0)
    if mode is ArrayMode.RECONSTRUCTION:
        if not layout.has_sparing:
            controller.install_replacement()
        controller.enter_reconstruction(lambda offset: offset % 2 == 0)
    elif mode is ArrayMode.POST_RECONSTRUCTION:
        controller.finish_reconstruction()
    if second_failure:
        controller.fail_subsequent_disk(1)
    if planned:
        controller.enable_transient_errors(0.0, seed="t")
    controller.attach_oracle(_OracleLog())
    issued = []
    for server in controller.servers:
        server.submit = lambda request, disk=server.disk_id: (
            issued.append((disk, request))
        )
    return controller, issued


def test_direct_reads_issue_the_planned_requests():
    """A read without retries or hedging skips ``plan_access`` in every
    mode but must issue what the planned phase would — same requests,
    same order, none to a failed server — and make the same oracle
    calls, per access shape."""
    cases = [
        (mode, False)
        for mode in (
            ArrayMode.FAULT_FREE,
            ArrayMode.DEGRADED,
            ArrayMode.RECONSTRUCTION,
            ArrayMode.POST_RECONSTRUCTION,
        )
    ] + [(ArrayMode.DEGRADED, True), (ArrayMode.RECONSTRUCTION, True)]
    fanned_out = dropped = checked = 0
    for name, layout in _LAYOUTS.items():
        for mode, second_failure in cases:
            if (
                mode is ArrayMode.POST_RECONSTRUCTION
                and not layout.has_sparing
            ):
                continue
            direct, issued = issuing_controller(
                layout, mode, second_failure, planned=False
            )
            planned, planned_issued = issuing_controller(
                layout, mode, second_failure, planned=True
            )
            shapes = [
                (0, 1),
                (5, 4),
                (40, 3 * layout.data_per_stripe + 1),
                (0, layout.data_units_per_period),
            ]
            for access_id, (first, count) in enumerate(shapes):
                del issued[:]
                del planned_issued[:]
                for controller in (direct, planned):
                    controller.submit(
                        LogicalAccess(access_id, first, count, False),
                        lambda access, response: None,
                    )
                phase = plan_access(
                    layout,
                    first,
                    count,
                    False,
                    mode=mode,
                    failed_disk=direct.failed_disk,
                    rebuilt=direct._rebuilt,
                ).phases[0]
                requests = direct._requests(phase, False, access_id, 0)
                live = [
                    (disk, request)
                    for disk, request in requests
                    if not direct.servers[disk].failed
                ]
                assert issued == live == planned_issued, (name, mode)
                fanned_out += len(phase) > count
                dropped += len(live) < len(requests)
            assert (
                direct.oracle.reconstructed == planned.oracle.reconstructed
            ), (name, mode)
            checked += len(direct.oracle.reconstructed)
    # The cases reach the degraded fan-out, the live filter and the
    # oracle's reconstructed-read checks.
    assert fanned_out and dropped and checked
