"""Property-based invariants over randomly drawn layout configurations."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.array.raidops import ArrayMode, plan_access
from repro.core.bose import bose_base_permutation
from repro.core.layout import PDDLLayout
from repro.gf.prime import is_prime
from repro.layouts.address import Role
from repro.layouts.datum import DatumLayout
from repro.layouts.parity_decluster import ParityDeclusteringLayout
from repro.layouts.prime import PrimeLayout
from repro.layouts.pseudorandom import PseudoRandomLayout
from repro.layouts.raid5 import LeftSymmetricRaid5Layout
from tests.layouts.reference_layout import stripe_units

# Precomputed pool of valid configurations across all layout families.
_POOL = []
for _n, _k in [(5, 2), (7, 2), (7, 3), (11, 2), (13, 3), (13, 4), (13, 6)]:
    if is_prime(_n):
        _POOL.append(PrimeLayout(_n, _k))
    if (_n - 1) % _k == 0:
        _POOL.append(PDDLLayout(bose_base_permutation((_n - 1) // _k, _k)))
    _POOL.append(DatumLayout(_n, _k))
_POOL.append(LeftSymmetricRaid5Layout(5))
_POOL.append(LeftSymmetricRaid5Layout(13))
_POOL.append(ParityDeclusteringLayout(7, 3))
_POOL.append(ParityDeclusteringLayout(13, 4))
_POOL.append(PseudoRandomLayout(13, 4, rows=24, seed=9))

layouts = st.sampled_from(_POOL)


@pytest.mark.parametrize("layout", _POOL, ids=lambda l: l.describe())
def test_pool_layouts_validate(layout):
    layout.validate()


@given(layouts, st.integers(min_value=0, max_value=10_000))
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_data_unit_roundtrip(layout, unit):
    unit %= layout.data_units_per_period * 3
    addr = layout.data_unit_address(unit)
    info = layout.locate(*addr)
    assert info.role is Role.DATA
    assert info.stripe == layout.stripe_of_data_unit(unit)
    assert stripe_units(layout, info.stripe).data[info.position] == addr


@given(layouts, st.integers(min_value=0, max_value=10_000))
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_stripe_units_distinct_disks(layout, stripe):
    stripe %= layout.stripes_per_period * 2
    disks = stripe_units(layout, stripe).disks()
    assert len(set(disks)) == len(disks) == layout.k


@given(
    layouts,
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=1, max_value=30),
    st.booleans(),
)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_fault_free_plan_conservation(layout, start, count, is_write):
    start %= layout.data_units_per_period
    plan = plan_access(layout, start, count, is_write)
    expected_cells = {
        layout.data_unit_address(u) for u in range(start, start + count)
    }
    if is_write:
        writes = {
            (op.disk, op.offset)
            for op in plan.all_ops()
            if op.is_write
        }
        # every accessed data unit is written exactly once
        assert {tuple(c) for c in expected_cells} <= writes
        # and every op addresses a real cell
        for op in plan.all_ops():
            assert layout.locate(op.disk, op.offset) is not None
    else:
        cells = {(op.disk, op.offset) for op in plan.all_ops()}
        assert cells == {tuple(c) for c in expected_cells}


@given(
    layouts,
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=1, max_value=20),
    st.booleans(),
    st.integers(min_value=0, max_value=12),
)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_degraded_plan_avoids_failed_disk(
    layout, start, count, is_write, failed
):
    failed %= layout.n
    start %= layout.data_units_per_period
    plan = plan_access(
        layout, start, count, is_write,
        mode=ArrayMode.DEGRADED, failed_disk=failed,
    )
    assert all(op.disk != failed for op in plan.all_ops())


@given(
    st.sampled_from([l for l in _POOL if l.has_sparing]),
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=1, max_value=20),
    st.booleans(),
    st.integers(min_value=0, max_value=12),
)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_post_reconstruction_plan_avoids_failed_disk(
    layout, start, count, is_write, failed
):
    failed %= layout.n
    start %= layout.data_units_per_period
    plan = plan_access(
        layout, start, count, is_write,
        mode=ArrayMode.POST_RECONSTRUCTION, failed_disk=failed,
    )
    assert all(op.disk != failed for op in plan.all_ops())
    # Post-reconstruction reads are one op per unit, like fault-free.
    if not is_write:
        assert plan.operation_count() == count
