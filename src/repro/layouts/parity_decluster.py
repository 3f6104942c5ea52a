"""Parity Declustering (Holland & Gibson, ASPLOS-V 1992).

The layout table is a complete BIBD: each block is the disk set of one
stripe.  The design is duplicated ``k`` times with the check unit rotating
through the block positions so every disk carries its fair share of parity.
Mapping is by table lookup — the scheme the paper uses as "the initial and
typical representation of BIBD-based layouts".
"""

from __future__ import annotations

from typing import List, Optional

from repro.designs.bibd import BlockDesign
from repro.designs.catalog import known_bibd
from repro.errors import ConfigurationError
from repro.layouts.base import Layout, Stripe


class ParityDeclusteringLayout(Layout):
    """BIBD-table layout with rotated parity.

    One pattern is ``k`` copies of the design; in copy ``c`` stripe ``j``'s
    check unit is block position ``(j + c) % k``.  Offsets are assigned by
    occurrence order, giving ``k * r`` rows per pattern (r = replications).

    >>> lay = ParityDeclusteringLayout(13, 4)
    >>> (lay.period, lay.stripes_per_period)
    (16, 52)
    """

    name = "Parity Declustering"

    def __init__(self, n: int, k: int, design: Optional[BlockDesign] = None):
        super().__init__(n=n, k=k)
        if design is None:
            design = known_bibd(n, k)
        if design.v != n or design.k != k:
            raise ConfigurationError(
                f"design is ({design.v}, {design.k}); layout needs ({n}, {k})"
            )
        design.validate_bibd()
        self.design = design
        self._replication = design.replication_counts()[0]

    @property
    def period(self) -> int:
        return self.k * self._replication

    @property
    def stripes_per_period(self) -> int:
        return self.k * self.design.b

    def _build_stripes(self) -> List[Stripe]:
        stripes = []
        for copy in range(self.k):
            # Within a copy, disk d's units stack in block order.
            next_row = [copy * self._replication] * self.n
            for j, block in enumerate(self.design.blocks):
                cells = []
                for disk in block:
                    cells.append((disk, next_row[disk]))
                    next_row[disk] += 1
                check = cells.pop((j + copy) % self.k)
                stripes.append((tuple(cells), (check,)))
        return stripes

    def mapping_table_entries(self) -> int:
        """Table 3: the stored design, ``b * k`` entries (= n(n-1)/(k-1)
        for the lambda = 1 designs the paper ships)."""
        return self.design.b * self.k
