"""The table-driven stripe consumers against their per-stripe
references, step for step.

The rebuild plan, resync's classification and stripe cells, the
second-failure profile and repair steps, the controller's stripe peers
and parity pollution, and the integrity oracle's at-risk scan and
planned-write meanings all read ``Layout.stripe_table`` and
``Layout.failure_table``.  ``reference_consumers`` keeps each of them as
it was when it materialised stripes one at a time.  Periodicity makes
the two exactly equal, so these tests demand equal results, in equal
order, and the same exception types — over every registry layout, a
wrapped layout, a two-check P+Q PDDL, and a relocated view of every
disk of each sparing layout; for every failed disk; over whole periods,
partial sweeps and rebuild frontiers drawn by hypothesis.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array.controller import ArrayController
from repro.array.raidops import ArrayMode
from repro.array.resync import Resynchronizer, classify_stripe
from repro.core.layout import PDDLLayout
from repro.core.permutation import BasePermutation
from repro.core.reconstruction import count_lost_units, rebuild_plan
from repro.core.wrapping import wrapped_layout
from repro.errors import MappingError
from repro.faults.multifault import (
    _period_profile,
    evaluate_second_failure,
    second_failure_repair_steps,
)
from repro.faults.oracle import IntegrityOracle, StripeParityModel
from repro.layouts.registry import available_layouts, make_layout
from repro.layouts.relocated import RelocatedView
from repro.sim.engine import SimulationEngine
from tests.layouts import reference_consumers as ref

_BUILDERS = {
    name: (
        lambda name=name: make_layout(
            name, *((13, 13) if name == "raid5" else (13, 4))
        )
    )
    for name in available_layouts()
}
_BUILDERS.update(
    {
        "wrapped-14": lambda: wrapped_layout(14, 3, 4),
        "pddl-pq": lambda: PDDLLayout(
            BasePermutation(
                (0, 5, 1, 8, 3, 9, 2, 7, 4, 6), k=4, spares=2, checks=2
            )
        ),
    }
)

_built = {}


def _base(name):
    if name not in _built:
        _built[name] = _BUILDERS[name]()
    return _built[name]


_SPARING = sorted(name for name in _BUILDERS if _base(name).has_sparing)
#: A case is one layout, or ``views-of-<name>``: the relocated view of
#: every disk of a sparing layout.
_CASES = sorted(_BUILDERS) + [f"views-of-{name}" for name in _SPARING]


def _layouts(case):
    if case.startswith("views-of-"):
        base = _base(case[len("views-of-"):])
        return [RelocatedView(base, disk) for disk in range(base.n)]
    return [_base(case)]


def _failed_disks(layout):
    """Every disk of a layout; for a relocated view, its relocated disk
    and the next one (hypothesis draws the rest)."""
    moved = getattr(layout, "relocated_disk", None)
    if moved is None:
        return range(layout.n)
    return [moved, (moved + 1) % layout.n]


def _stripes(layout):
    """About 32 stripes spread over the first two periods."""
    per_period = layout.stripes_per_period
    return range(0, 2 * per_period, max(1, per_period // 16))


def _same(call, reference):
    """``call()`` returns what ``reference()`` returns, or raises the
    same exception type."""
    try:
        expected = reference()
    except Exception as exc:  # noqa: BLE001 - the type is the assertion
        with pytest.raises(type(exc)):
            call()
        return
    assert call() == expected


def _frontier(layout):
    """A fixed partial rebuild frontier: every third offset of the
    first two periods."""
    swept = frozenset(range(0, 2 * layout.period, 3))
    return swept.__contains__


def test_sparing_layouts_have_view_cases():
    assert _SPARING == ["pddl", "pddl-pq", "pseudo-random", "wrapped-14"]


@pytest.mark.parametrize("case", _CASES)
def test_rebuild_plan_matches_reference(case):
    for layout in _layouts(case):
        for disk in _failed_disks(layout):
            for rows in (None, 26):
                _same(
                    lambda: list(rebuild_plan(layout, disk, rows)),
                    lambda: list(ref.rebuild_plan(layout, disk, rows)),
                )


@pytest.mark.parametrize("case", _CASES)
def test_lost_unit_count_matches_the_plan(case):
    # The reconstructor's total_steps: a count above the plan leaves
    # fraction_complete short of 1.0 when the sweep ends.
    for layout in _layouts(case):
        for disk in _failed_disks(layout):
            for rows in (None, 26, layout.period + 1):
                try:
                    steps = len(list(rebuild_plan(layout, disk, rows)))
                except MappingError:
                    continue  # a relocated view's own disk
                assert count_lost_units(layout, disk, rows) == steps


@pytest.mark.parametrize("case", _CASES)
def test_resync_matches_reference(case):
    for layout in _layouts(case):
        stripes = _stripes(layout)
        for failed in [None, *_failed_disks(layout)]:
            for rebuilt in (None, _frontier(layout)):
                for stripe in stripes:
                    assert classify_stripe(
                        layout, stripe, failed, rebuilt
                    ) == ref.classify_stripe(layout, stripe, failed, rebuilt)
                modes = [ArrayMode.DEGRADED]
                if layout.has_sparing and failed is not None:
                    modes.append(ArrayMode.POST_RECONSTRUCTION)
                for mode in modes:
                    sweep = SimpleNamespace(
                        controller=SimpleNamespace(
                            failed_disk=failed, mode=mode
                        ),
                        layout=layout,
                        rebuilt=rebuilt,
                    )
                    post = mode is ArrayMode.POST_RECONSTRUCTION
                    for stripe in stripes:
                        assert Resynchronizer._live_cells(
                            sweep, stripe
                        ) == ref.resync_cells(
                            layout, stripe, failed, post, rebuilt
                        )


@pytest.mark.parametrize("case", _CASES)
def test_period_profile_matches_reference(case):
    for layout in _layouts(case):
        n = layout.n
        for first in _failed_disks(layout):
            for second in ((first + 1) % n, (first + n // 2) % n):
                _same(
                    lambda: _period_profile(layout, first, second),
                    lambda: ref.period_profile(layout, first, second),
                )


@pytest.mark.parametrize("case", _CASES)
def test_second_failure_repair_steps_match_reference(case):
    """A whole period before the sweep starts, and a complete sweep of
    ``rows = 26``."""
    for layout in _layouts(case):
        for first in _failed_disks(layout):
            second = (first + 1) % layout.n
            for rows, rebuilt in (
                (layout.period, frozenset()),
                (26, frozenset(range(26))),
            ):
                _assert_repair_steps_match(
                    layout, first, second, rebuilt, rows
                )


def _assert_repair_steps_match(layout, first, second, rebuilt, rows):
    try:
        outcome = evaluate_second_failure(
            layout, first, second, rebuilt, rows
        )
    except Exception as exc:  # noqa: BLE001 - the reference must agree
        with pytest.raises(type(exc)):
            ref.period_profile(layout, first, second)
        return
    args = (layout, first, second, outcome.relost_offsets, rebuilt, rows)
    _same(
        lambda: second_failure_repair_steps(*args),
        lambda: ref.second_failure_repair_steps(*args),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_drawn_frontiers_match_reference(data):
    case = data.draw(st.sampled_from(_CASES))
    layout = data.draw(st.sampled_from(_layouts(case)))
    rows = data.draw(st.sampled_from([layout.period, 26, 2 * layout.period]))
    first = data.draw(st.integers(0, layout.n - 1))
    second = data.draw(
        st.integers(0, layout.n - 1).filter(lambda d: d != first)
    )
    rebuilt = frozenset(
        data.draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    )
    _assert_repair_steps_match(layout, first, second, rebuilt, rows)
    for stripe in data.draw(
        st.lists(st.integers(0, 3 * layout.stripes_per_period), max_size=20)
    ):
        assert classify_stripe(
            layout, stripe, first, rebuilt.__contains__
        ) == ref.classify_stripe(layout, stripe, first, rebuilt.__contains__)


def _controller(layout):
    return ArrayController(SimulationEngine(), layout)


def _assert_peers_match(controller, offsets):
    layout = controller.plan_layout
    for disk in range(layout.n):
        for offset in offsets:
            _same(
                lambda: controller._stripe_peers(disk, offset),
                lambda: ref.stripe_peers(controller, disk, offset),
            )
    polluted = []
    controller.corruption = SimpleNamespace(
        pollute=lambda disk, offset: polluted.append((disk, offset))
    )
    for disk in range(layout.n):
        if disk == getattr(layout, "relocated_disk", None):
            continue
        controller._pollute_parity(disk, list(offsets))
        assert polluted == ref.polluted_cells(layout, disk, offsets)
        polluted.clear()
    controller.corruption = None


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_stripe_peers_match_reference(name):
    """Every repair state the controller passes through, for every
    failed disk: degraded, reconstruction behind a frontier (onto a
    replacement spindle without sparing), post-reconstruction, and a
    second failure against the relocated view."""
    layout = _base(name)
    # Rebuilt and un-rebuilt rows of the first two cycles.
    offsets = [0, 1, 2, layout.period + 1, layout.period + 2]
    _assert_peers_match(_controller(layout), offsets)
    for failed in range(layout.n):
        controller = _controller(layout)
        controller.fail_disk(failed)
        _assert_peers_match(controller, offsets)
        if not layout.has_sparing:
            controller.install_replacement()
        controller.enter_reconstruction(_frontier(layout))
        _assert_peers_match(controller, offsets)
        if not layout.has_sparing:
            continue
        controller.finish_reconstruction()
        _assert_peers_match(controller, offsets)
        controller.relocate_and_fail((failed + 1) % layout.n)
        _assert_peers_match(controller, offsets)
        controller.install_replacement()
        controller.enter_reconstruction(_frontier(layout))
        _assert_peers_match(controller, offsets)


@pytest.mark.parametrize("case", _CASES)
def test_oracle_matches_reference(case):
    for layout in _layouts(case):
        oracle = IntegrityOracle(layout)
        oracle.suspect = set(_stripes(layout))
        model = StripeParityModel(layout)
        units = layout.data_units_per_period
        per_stripe = layout.data_per_stripe
        moved = getattr(layout, "relocated_disk", None)
        for failed in [None, *_failed_disks(layout)]:
            assert oracle.verify(failed)["at_risk_stripes"] == (
                ref.at_risk_stripes(layout, oracle.suspect, failed)
            )
            if failed is not None and failed == moved:
                continue  # nothing is planned on the relocated disk
            mode = (
                ArrayMode.FAULT_FREE
                if failed is None
                else ArrayMode.POST_RECONSTRUCTION
                if layout.has_sparing
                else ArrayMode.DEGRADED
            )
            for first, count in (
                (0, 3 * per_stripe),
                (units - 2, 2 * per_stripe),
                (per_stripe + 1, 1),
            ):
                write = model.plan_write(first, count, mode, failed)
                assert write._meanings == ref.planned_write_meanings(
                    layout, first, count, failed
                )
