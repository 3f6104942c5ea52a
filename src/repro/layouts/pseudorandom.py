"""Pseudo-Random declustering (Merchant & Yu, IEEE ToC 1996).

Replaces the stored block design with an on-demand pseudo-random permutation
per row: the virtual RAID-4 template (spare columns, then ``g`` groups of
``k``) is shuffled independently in every row, so parity, spare space, and
reconstruction load are all *expected* to be even, with no exact guarantees
("expected values only" in Table 3's period column).

Merchant & Yu key a Thorpe shuffle per row; we use a seeded Fisher-Yates
draw, which is an equally deterministic stand-in exposing the same
statistical behaviour.  The template has one spare column, the shuffles
are seeded with ``SEED`` and the layout repeats after ``ROWS`` rows (true
pseudo-random layouts are aperiodic; 128 rows is large against the
reconstruction spans the experiments sweep).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.layouts.base import Cell, Layout, Stripe

#: Spare columns of the RAID-4 template, rows per period, and the seed of
#: the per-row shuffles.
SPARES = 1
ROWS = 128
SEED = 0


class PseudoRandomLayout(Layout):
    """Per-row pseudo-random shuffles of a RAID-4 template.

    >>> lay = PseudoRandomLayout(13, 4)
    >>> lay.stripes_per_period == lay.period * lay.g
    True
    """

    name = "Pseudo-Random"

    def __init__(self, n: int, k: int):
        super().__init__(n=n, k=k)
        if (n - SPARES) % k != 0:
            raise ConfigurationError(
                f"n = {n} does not decompose as g*{k} + {SPARES}"
            )
        self.spares = SPARES
        self.g = (n - SPARES) // k
        self._row_perms: Dict[int, Tuple[int, ...]] = {}

    @property
    def period(self) -> int:
        return ROWS

    @property
    def stripes_per_period(self) -> int:
        return ROWS * self.g

    def _row_permutation(self, row: int) -> Tuple[int, ...]:
        perm = self._row_perms.get(row)
        if perm is None:
            rng = random.Random(f"{SEED}:{row}")
            values = list(range(self.n))
            rng.shuffle(values)
            perm = tuple(values)
            self._row_perms[row] = perm
        return perm

    def _build_stripes(self) -> List[Stripe]:
        stripes = []
        for row in range(ROWS):
            perm = self._row_permutation(row)
            for start in range(self.spares, self.n, self.k):
                check = start + self.k - 1
                data = tuple((perm[c], row) for c in range(start, check))
                stripes.append((data, ((perm[check], row),)))
        return stripes

    def spare_cells(self) -> List[Cell]:
        return [
            (self._row_permutation(row)[column], row)
            for row in range(ROWS)
            for column in range(SPARES)
        ]

    def mapping_table_entries(self) -> int:
        return 2  # key + row-count state (Table 3: log n + log D bits)
