"""Tests for the analytic-vs-simulated validation harness."""

import pytest

from repro.experiments.validation import ValidationRow, validation_rows

#: Every row of ``validation_rows(samples=120)``, floats as their reprs,
#: so a change to the simulation this harness drives shows here.
PINNED_ROWS = [
    ("working set / non-local seeks (96KB read)", "pddl",
     "9.222222222222221", "9.625"),
    ("ops per access (96KB read)", "pddl", "12.0", "12.408333333333335"),
    ("working set / non-local seeks (96KB read)", "datum",
     "5.407925407925408", "5.65"),
    ("ops per access (96KB read)", "datum", "12.0", "12.258333333333333"),
    ("working set / non-local seeks (192KB read)", "raid5", "13.0",
     "13.45"),
    ("ops per access (192KB read)", "raid5", "24.0", "24.75"),
    ("degraded read inflation (8KB read)", "pddl", "1.153846153846154",
     "1.1666666666666667"),
    ("degraded read inflation (8KB read)", "prime", "1.153846153846154",
     "1.175"),
    ("ops per access (16KB write)", "pddl", "5.333333333333333", "5.25"),
    ("ops per access (48KB write)", "raid5", "14.833333333333334",
     "15.291666666666666"),
]


@pytest.fixture(scope="module")
def rows():
    return validation_rows(samples=120)


class TestValidationRow:
    def test_relative_error(self):
        row = ValidationRow("x", "pddl", analytic=10.0, simulated=10.5)
        assert row.relative_error == 0.05

    def test_zero_analytic(self):
        row = ValidationRow("x", "pddl", analytic=0.0, simulated=0.3)
        assert row.relative_error == 0.3


class TestValidationRows:
    def test_small_run_agrees(self, rows):
        assert len(rows) == 10
        for row in rows:
            assert row.relative_error < 0.15, (row.quantity, row.layout)

    def test_covers_reads_writes_and_degraded(self, rows):
        quantities = " ".join(row.quantity for row in rows)
        assert "write" in quantities
        assert "degraded" in quantities
        assert "working set" in quantities

    def test_rows_are_pinned(self, rows):
        assert [
            (row.quantity, row.layout, repr(row.analytic),
             repr(row.simulated))
            for row in rows
        ] == PINNED_ROWS
