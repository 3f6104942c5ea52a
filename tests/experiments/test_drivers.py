"""Tests for the seek-mix, working-set, Table 1, and Table 3 drivers."""

import pytest

from repro.array.raidops import ArrayMode
from repro.experiments.seeks import run_seek_mix
from repro.experiments.table1 import solve_cell
from repro.experiments.table3 import table3_rows
from repro.experiments.workingset import FIGURE3_SIZES_KB, figure3_table
from repro.runner import (
    ParallelRunner,
    Table1Spec,
    cells_from_records,
    table1_specs,
)


class TestSeekMix:
    def test_nonlocal_tracks_working_set(self):
        # §4.1: non-local seek counts equal the disk working set sizes.
        from repro.stats.workingset import average_working_set
        from repro.experiments.config import paper_layout

        mixes = run_seek_mix(
            ["pddl"], [96], is_write=False, samples_per_point=200, clients=8
        )
        analytic = average_working_set(paper_layout("pddl"), 12, False)
        measured = mixes[("pddl", 96)].non_local
        assert measured == pytest.approx(analytic, rel=0.1)

    def test_degraded_mix_larger(self):
        ff = run_seek_mix(["pddl"], [96], False, samples_per_point=150)
        f1 = run_seek_mix(
            ["pddl"], [96], False,
            mode=ArrayMode.DEGRADED, samples_per_point=150,
        )
        assert f1[("pddl", 96)].total > ff[("pddl", 96)].total


class TestFigure3Driver:
    def test_full_grid(self):
        table = figure3_table(sizes_kb=[8, 96], layout_names=("pddl", "raid5"))
        assert len(table) == 2 * 2 * 4
        assert table[("raid5", 96, "ffread")] == 12.0

    def test_default_sizes(self):
        assert FIGURE3_SIZES_KB == (8, 48, 96, 144, 192, 240)


class TestTable1Driver:
    def test_prime_cell_solved_constructively(self):
        cell = solve_cell(Table1Spec(k=6, g=2))  # n = 13, prime
        assert cell.group_size == 1
        assert cell.method == "bose"
        assert cell.paper_value == 1

    def test_power_of_two_cell(self):
        cell = solve_cell(Table1Spec(k=5, g=3))  # n = 16
        assert cell.group_size == 1
        assert cell.method == "gf2"

    def test_search_cell(self):
        spec = Table1Spec(k=5, g=4, restarts=20, max_steps=2000)  # n = 21
        cell = solve_cell(spec)
        assert cell.group_size is not None
        assert cell.method == "search"

    def test_unsolved_cell_renders_question_mark(self):
        cell = solve_cell(
            Table1Spec(k=10, g=2, restarts=1, max_steps=20, p_max=1)
        )
        assert cell.rendered() == "?"

    def test_small_grid(self):
        specs = table1_specs([5], [1, 2], restarts=6, max_steps=600)
        cells = cells_from_records(
            ParallelRunner(workers=1).run(specs).records
        )
        assert set(cells) == {(5, 1), (5, 2)}
        # n = 6 and n = 11: both solvable with a solitary permutation.
        assert cells[(5, 2)].group_size == 1


class TestTable3Driver:
    def test_rows(self):
        rows = table3_rows(iterations=2000)
        assert set(rows) == {
            "parity-declustering", "datum", "prime", "pddl", "pseudo-random",
        }
        assert rows["pddl"].table_entries == 13      # p * n
        assert rows["datum"].table_entries == 0
        assert rows["prime"].table_entries == 0
        assert rows["parity-declustering"].table_entries == 52
        assert rows["pddl"].sparing
        assert not rows["datum"].sparing
        assert rows["pseudo-random"].period_rows is None
        for row in rows.values():
            assert row.translation_ns > 0
            assert row.as_row()
