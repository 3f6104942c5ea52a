"""Exact second-failure accounting, checked against brute force."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import evaluate_second_failure, second_failure_repair_steps
from repro.layouts import make_layout
from repro.layouts.address import Role
from tests.layouts.reference_layout import stripe_units

LAYOUTS = ("pddl", "datum", "prime", "parity-declustering", "raid5")


def brute_force_lost(layout, first, second, rebuilt, rows):
    """Count unrecoverable units by walking every stripe directly."""
    lost = 0
    for offset in range(rows):
        info = layout.locate(first, offset)
        if info.role is Role.SPARE:
            continue
        members = stripe_units(layout, info.stripe).all_units()
        touches = any(a.disk == second for a in members)
        if offset in rebuilt:
            if layout.has_sparing:
                target = layout.relocation_target(
                    type(members[0])(first, offset)
                )
                if target.disk == second and touches:
                    lost += 2
        elif touches:
            lost += 2
    return lost


class TestEvaluate:
    @pytest.mark.parametrize("layout_name", LAYOUTS)
    def test_matches_brute_force_empty_frontier(self, layout_name):
        layout = make_layout(layout_name, 13, 4)
        outcome = evaluate_second_failure(layout, 0, 5, frozenset(), 26)
        assert outcome.lost_units == brute_force_lost(
            layout, 0, 5, frozenset(), 26
        )
        assert outcome.data_loss == (outcome.lost_units > 0)

    @pytest.mark.parametrize("layout_name", LAYOUTS)
    def test_matches_brute_force_partial_frontier(self, layout_name):
        layout = make_layout(layout_name, 13, 4)
        frontier = frozenset(range(0, 26, 2))
        outcome = evaluate_second_failure(layout, 2, 9, frontier, 26)
        assert outcome.lost_units == brute_force_lost(
            layout, 2, 9, frontier, 26
        )

    def test_raid5_every_pair_is_fatal_unrebuilt(self):
        # k = n for RAID-5: every stripe spans every disk, so any second
        # failure before the sweep finishes loses every un-rebuilt row
        # twice over.
        layout = make_layout("raid5", 13, 4)
        outcome = evaluate_second_failure(layout, 0, 7, frozenset(), 26)
        assert outcome.data_loss
        assert outcome.lost_units == 2 * 26

    def test_pddl_fully_rebuilt_is_survivable_or_relost(self):
        # With the whole domain rebuilt into spare space, nothing is
        # doubly dead: the worst case is re-lost (copy on the casualty).
        layout = make_layout("pddl", 13, 4)
        for second in range(1, 13):
            outcome = evaluate_second_failure(
                layout, 0, second, frozenset(range(26)), 26
            )
            lost_rows = [
                o % layout.period
                for o in range(26)
                if o in outcome.relost_offsets
            ]
            assert not outcome.data_loss or outcome.lost_units > 0
            # Re-lost rows are exactly those whose spare target sits on
            # the second disk.
            for offset in outcome.relost_offsets:
                target = layout.relocation_target(
                    stripe_units(
                        layout, layout.locate(0, offset).stripe
                    ).all_units()[0].__class__(0, offset)
                )
                assert target.disk == second
            assert lost_rows == sorted(lost_rows)

    def test_is_deterministic(self):
        layout = make_layout("pddl", 13, 4)
        a = evaluate_second_failure(layout, 3, 8, frozenset({0, 4}), 26)
        b = evaluate_second_failure(layout, 3, 8, frozenset({0, 4}), 26)
        assert a == b

    def test_rejects_bad_arguments(self):
        layout = make_layout("pddl", 13, 4)
        with pytest.raises(ConfigurationError):
            evaluate_second_failure(layout, 4, 4, frozenset(), 13)
        with pytest.raises(ConfigurationError):
            evaluate_second_failure(layout, 0, 13, frozenset(), 13)
        with pytest.raises(ConfigurationError):
            evaluate_second_failure(layout, 0, 1, frozenset(), 0)


class TestRepairSteps:
    @pytest.mark.parametrize("layout_name", LAYOUTS)
    def test_reads_never_touch_either_dead_disk(self, layout_name):
        layout = make_layout(layout_name, 13, 4)
        # Find a survivable operating point: a fully-rebuilt frontier.
        frontier = frozenset(range(26))
        outcome = evaluate_second_failure(layout, 0, 6, frontier, 26)
        if outcome.data_loss:
            pytest.skip(f"{layout_name}: no survivable double fault here")
        steps = second_failure_repair_steps(
            layout, 0, 6, outcome.relost_offsets, frontier, 26
        )
        assert steps, "a whole dead disk must create repair work"
        for step in steps:
            for addr in step.reads:
                # Never the fresh casualty; the first disk's slot only
                # where the replacement/spare rebuild already holds the
                # data (sparing layouts redirect those reads entirely).
                assert addr.disk != 6, step
                if layout.has_sparing:
                    assert addr.disk != 0, step
                elif addr.disk == 0:
                    # In-domain offsets must already be rebuilt onto the
                    # replacement; out-of-domain offsets are intact by
                    # the truncated-sweep convention.
                    assert addr.offset in frontier or addr.offset >= 26, (
                        step
                    )

    def test_relost_units_are_reswept_to_their_spare_targets(self):
        layout = make_layout("pddl", 13, 4)
        frontier = frozenset(range(26))
        for second in range(1, 13):
            outcome = evaluate_second_failure(
                layout, 0, second, frontier, 26
            )
            if outcome.data_loss or not outcome.relost_offsets:
                continue
            steps = second_failure_repair_steps(
                layout, 0, second, outcome.relost_offsets, frontier, 26
            )
            relost_steps = [s for s in steps if s.lost.disk == 0]
            assert {s.lost.offset for s in relost_steps} == set(
                outcome.relost_offsets
            )
            for step in relost_steps:
                assert step.write is not None
                assert step.write.disk == second
            break
        else:
            pytest.fail("no relost case found on 13-disk PDDL")

    def test_second_disk_spare_cells_produce_no_steps(self):
        layout = make_layout("pddl", 13, 4)
        frontier = frozenset(range(26))
        outcome = evaluate_second_failure(layout, 0, 6, frontier, 26)
        steps = second_failure_repair_steps(
            layout, 0, 6, outcome.relost_offsets, frontier, 26
        )
        spare_rows = {
            offset
            for offset in range(26)
            if layout.locate(6, offset).role is Role.SPARE
        }
        second_steps = {s.lost.offset for s in steps if s.lost.disk == 6}
        assert second_steps.isdisjoint(spare_rows)
