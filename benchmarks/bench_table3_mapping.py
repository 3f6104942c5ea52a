"""Table 3 — implementation-cost comparison of the declustering schemes.

Columns reproduced: mapping table size (entries), translation time
(measured here with pytest-benchmark, per data-unit mapping), sparing
support, and layout period.  Expected shape:

- Parity Declustering stores the design table (n(n-1)/(k-1) entries);
- DATUM and PRIME are tableless ("few arithmetic operations");
- PDDL stores p*n permutation entries and translates with "very few
  arithmetic operations & vector lookup" — the fastest declustered
  mapping;
- only PDDL provides sparing.
"""

import pytest

from repro.experiments.config import paper_layout
from repro.experiments.report import render_table
from repro.experiments.table3 import table3_rows

SCHEMES = ("parity-declustering", "datum", "prime", "pddl")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_table3_translation_time(benchmark, scheme):
    layout = paper_layout(scheme)
    total = layout.data_units_per_period

    def translate_block():
        for unit in range(0, total, max(1, total // 128)):
            layout.data_unit_address(unit)

    benchmark(translate_block)


def test_table3_summary(benchmark):
    rows = benchmark.pedantic(
        table3_rows, kwargs=dict(iterations=50_000), rounds=1, iterations=1
    )

    print()
    print("Table 3: scheme comparison")
    print(
        render_table(
            ["scheme", "table entries", "sparing", "period (rows)",
             "translate ns/unit"],
            [
                [
                    row.scheme,
                    row.table_entries,
                    "yes" if row.sparing else "no",
                    row.period_rows if row.period_rows else "expected only",
                    f"{row.translation_ns:.0f}",
                ]
                for row in rows.values()
            ],
        )
    )

    assert rows["parity-declustering"].table_entries == 52  # n(n-1)/(k-1)
    assert rows["datum"].table_entries == 0
    assert rows["prime"].table_entries == 0
    assert rows["pddl"].table_entries == 13  # p * n
    assert rows["pddl"].sparing
    assert not rows["datum"].sparing
    assert not rows["prime"].sparing
    assert not rows["parity-declustering"].sparing
    assert rows["pseudo-random"].period_rows is None

    # Periods: Parity Declustering k(n-1)/(k-1); PDDL p*n.
    assert rows["parity-declustering"].period_rows == 16
    assert rows["pddl"].period_rows == 13


def test_table3_translation_ratio():
    """PDDL's translation ties the cheapest declustered mappings (25%
    tolerance absorbs interpreter timing noise; the precise per-scheme ns
    come from the dedicated test_table3_translation_time benchmarks).

    A wall-clock ratio, so CI deselects this test and runs the structural
    claims of :func:`test_table3_summary`.
    """
    rows = table3_rows(iterations=50_000)
    pddl_ns = rows["pddl"].translation_ns
    assert pddl_ns <= rows["datum"].translation_ns * 1.25
    assert pddl_ns <= rows["prime"].translation_ns * 1.25
