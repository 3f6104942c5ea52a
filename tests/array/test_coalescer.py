"""The controller's request coalescer and the phase invariant it relies on.

``ArrayController._requests`` builds every client-access ``DiskRequest``:
the fused fault-free read path and each planned phase both go through it.
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


def test_fused_reads_issue_the_planned_requests():
    """A fault-free read skips ``plan_access`` but must issue what the
    planned phase would: same requests, same order, per access shape."""
    for name, layout in _LAYOUTS.items():
        controller = controller_for(layout)
        issued = []
        for server in controller.servers:
            server.submit = lambda request, disk=server.disk_id: (
                issued.append((disk, request))
            )
        for access_id, (first, count) in enumerate(
            [(0, 1), (5, 4), (40, 3 * layout.data_per_stripe + 1)]
        ):
            del issued[:]
            controller.submit(
                LogicalAccess(access_id, first, count, False),
                lambda access, response: None,
            )
            phase = plan_access(layout, first, count, False).phases[0]
            assert issued == controller._requests(phase, False, access_id, 0)
