"""The table-driven planner against the reference planner, op for op.

``repro.array.raidops`` plans writes and non-fault-free reads by walking
the layout's per-period stripe table; ``reference_planner`` keeps the
earlier planner, which materialised every stripe through
``Layout.stripe_units``.  Periodicity makes the two exactly equal, so
these properties demand equal phases, equal ops in equal order, equal
exception types, and the same rebuild-frontier queries — over every
registry layout, three more shapes (the n = 55 pair, a wrapped layout,
a two-check P+Q PDDL), and relocated views of the sparing ones.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array.raidops import ArrayMode, plan_access
from repro.core.layout import PDDLLayout
from repro.core.permutation import BasePermutation
from repro.core.wrapping import wrapped_layout
from repro.errors import ConfigurationError, MappingError
from repro.layouts.registry import available_layouts, make_layout
from repro.layouts.relocated import RelocatedView

from tests.array import reference_planner


def _registry(name):
    return make_layout(name, *((13, 13) if name == "raid5" else (13, 4)))


_BUILDERS = {
    name: (lambda name=name: _registry(name))
    for name in available_layouts()
}
_BUILDERS.update(
    {
        "pddl-55": lambda: make_layout("pddl", 55, 6),
        "wrapped-30": lambda: wrapped_layout(30, 4, 7),
        "pddl-pq": lambda: PDDLLayout(
            BasePermutation(
                (0, 5, 1, 8, 3, 9, 2, 7, 4, 6), k=4, spares=2, checks=2
            )
        ),
    }
)
#: Relocated views: every sparing layout above, plus a second disk.
_VIEWS = {
    "relocated-pddl-0": ("pddl", 0),
    "relocated-pddl-7": ("pddl", 7),
    "relocated-pseudo-random-0": ("pseudo-random", 0),
    "relocated-pddl-55-0": ("pddl-55", 0),
    "relocated-wrapped-30-0": ("wrapped-30", 0),
    "relocated-pddl-pq-0": ("pddl-pq", 0),
}
_CASES = sorted(_BUILDERS) + sorted(_VIEWS)

_built = {}


def _layout(case):
    if case not in _built:
        if case in _VIEWS:
            base, disk = _VIEWS[case]
            _built[case] = RelocatedView(_layout(base), disk)
        else:
            _built[case] = _BUILDERS[case]()
    return _built[case]


def test_sparing_layouts_all_have_views():
    sparing = {name for name in _BUILDERS if _layout(name).has_sparing}
    assert sparing == {base for base, _ in _VIEWS.values()}


class Frontier:
    """A pure ``rebuilt(offset)`` predicate that logs its queries."""

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value
        self.queries = []

    def __call__(self, offset):
        self.queries.append(offset)
        if self.kind == "sweep":  # a single sweep front
            return offset < self.value
        return (offset * 7 + self.value) % 11 < 5  # a scattered set


@st.composite
def accesses(draw, layout):
    """``(plan_access args, frontier kind and value)`` for ``layout``."""
    mode = draw(st.sampled_from(list(ArrayMode)))
    is_write = draw(st.booleans())
    count = draw(st.integers(1, 80))
    per_period = layout.data_units_per_period
    where = draw(st.sampled_from(["in-period", "cycle-boundary", "deep"]))
    if where == "in-period":
        start = draw(st.integers(0, per_period - 1))
    elif where == "cycle-boundary":
        start = max(
            0,
            draw(st.integers(1, 3)) * per_period + draw(st.integers(-80, 80)),
        )
    else:
        start = draw(st.integers(10**6, 10**12))
    failed = (
        None if mode is ArrayMode.FAULT_FREE
        else draw(st.integers(0, layout.n - 1))
    )
    frontier = None
    if mode is ArrayMode.RECONSTRUCTION:
        kind = draw(st.sampled_from(["sweep", "scattered"]))
        if kind == "sweep":
            row = start // per_period * layout.period
            value = draw(
                st.integers(row - layout.period, row + 2 * layout.period)
            )
        else:
            value = draw(st.integers(0, 10))
        frontier = (kind, value)
    return (start, count, is_write, mode, failed), frontier


def _outcome(planner, layout, args, frontier):
    rebuilt = Frontier(*frontier) if frontier else None
    try:
        plan = planner(layout, *args, rebuilt=rebuilt)
    except (ConfigurationError, MappingError) as exc:
        outcome = type(exc)
    else:
        outcome = plan.phases
    return outcome, (rebuilt.queries if rebuilt else None)


@pytest.mark.parametrize("case", _CASES)
@given(data=st.data())
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_plans_match_the_reference(case, data):
    layout = _layout(case)
    args, frontier = data.draw(accesses(layout))
    new, new_queries = _outcome(plan_access, layout, args, frontier)
    old, old_queries = _outcome(
        reference_planner.plan_access, layout, args, frontier
    )
    assert new == old
    assert new_queries == old_queries


@pytest.mark.parametrize("case", ["raid5", "pddl", "relocated-pddl-0"])
@pytest.mark.parametrize(
    "mode, failed, frontier",
    [
        (ArrayMode.FAULT_FREE, 0, None),
        (ArrayMode.DEGRADED, None, None),
        (ArrayMode.DEGRADED, 13, None),
        (ArrayMode.DEGRADED, 2, ("sweep", 5)),
        (ArrayMode.RECONSTRUCTION, 2, None),
        (ArrayMode.POST_RECONSTRUCTION, 2, None),
        (ArrayMode.DATA_LOSS, 2, None),
    ],
)
@pytest.mark.parametrize("is_write", [False, True])
def test_bad_arguments_raise_like_the_reference(
    case, mode, failed, frontier, is_write
):
    layout = _layout(case)
    args = (4, 6, is_write, mode, failed)
    old = _outcome(reference_planner.plan_access, layout, args, frontier)
    assert _outcome(plan_access, layout, args, frontier) == old
    for first, count in ((0, 0), (-1, 1)):
        args = (first, count, is_write, ArrayMode.FAULT_FREE, None)
        new = _outcome(plan_access, layout, args, None)
        assert new[0] is ConfigurationError
        assert new == _outcome(
            reference_planner.plan_access, layout, args, None
        )


@pytest.mark.parametrize("case", _CASES)
@given(data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_no_write_phase_repeats_an_op(case, data):
    """Why write plans skip dedupe: a stripe never uses a disk twice,
    stripes are disjoint, and spare targets belong to no stripe."""
    layout = _layout(case)
    (start, count, _, mode, failed), frontier = data.draw(accesses(layout))
    if mode is ArrayMode.DATA_LOSS or (
        mode is ArrayMode.POST_RECONSTRUCTION and not layout.has_sparing
    ):
        return
    plan = plan_access(
        layout, start, count, True, mode, failed,
        rebuilt=Frontier(*frontier) if frontier else None,
    )
    for phase in plan.phases:
        assert len(set(phase)) == len(phase)
