"""Table 3 driver: implementation-cost comparison of the schemes.

Columns: mapping table size (entries), translation time (measured, ns per
mapping — the benchmark harness times it), sparing support, and layout
period in rows.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.config import paper_layout
from repro.layouts.pseudorandom import PseudoRandomLayout


@dataclass(frozen=True)
class Table3Row:
    scheme: str
    table_entries: int
    sparing: bool
    period_rows: Optional[int]
    translation_ns: float

    def as_row(self) -> str:
        period = "expected only" if self.period_rows is None else str(
            self.period_rows
        )
        return (
            f"{self.scheme:22s} entries={self.table_entries:5d}"
            f"  sparing={'yes' if self.sparing else 'no':3s}"
            f"  period={period:14s}"
            f"  translate={self.translation_ns:8.1f} ns"
        )


def _time_translation(layout, iterations: int = 20_000) -> float:
    """Mean nanoseconds per data-unit mapping, via the public API."""
    total_units = layout.data_units_per_period
    stride = max(1, total_units // 64)

    def body():
        for unit in range(0, total_units, stride):
            layout.data_unit_address(unit)

    calls = len(range(0, total_units, stride))
    loops = max(1, iterations // calls)
    seconds = timeit.timeit(body, number=loops)
    return seconds / (loops * calls) * 1e9


def table3_rows(iterations: int = 20_000) -> Dict[str, Table3Row]:
    """Measure every scheme of Table 3 (plus Pseudo-Random)."""
    rows: Dict[str, Table3Row] = {}
    for name in ("parity-declustering", "datum", "prime", "pddl"):
        layout = paper_layout(name)
        rows[name] = Table3Row(
            scheme=name,
            table_entries=layout.mapping_table_entries(),
            sparing=layout.has_sparing,
            period_rows=layout.period,
            translation_ns=_time_translation(layout, iterations),
        )
    pseudo = PseudoRandomLayout(13, 4)
    rows["pseudo-random"] = Table3Row(
        scheme="pseudo-random",
        table_entries=pseudo.mapping_table_entries(),
        sparing=pseudo.has_sparing,
        period_rows=None,  # "expected values only"
        translation_ns=_time_translation(pseudo, iterations),
    )
    return rows
