"""Wrapping: combining PDDL with DATUM (paper §5, "future paper").

"To create a data layout for 30 disks with stripe width seven, we first
create a DATUM layout with stripe width 29.  Then for each of the 30 rows of
the DATUM layout, we use the PDDL data layout with four stripes each of width
seven plus a spare."

The outer DATUM complete block design picks, for each outer row, which
``n_inner = g*k + 1`` of the ``n`` physical disks participate; the inner PDDL
pattern then stripes those disks.  The result keeps goals #1-#4, #6, #7 on
arrays whose size is neither prime nor searchable.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import List, Optional, Tuple

from repro.core.layout import PDDLLayout, PermutationLike
from repro.errors import ConfigurationError
from repro.layouts.base import Cell, Layout, Stripe


class WrappedLayout(Layout):
    """PDDL wrapped inside an outer complete-block-design disk selection.

    Each *outer block* is a ``n_inner``-subset of the ``n`` physical disks
    (all ``C(n, n_inner)`` subsets in colexicographic order, DATUM-style).
    Outer block ``B`` contributes one full inner PDDL pattern, striped over
    the disks of ``B`` (sorted ascending); disks outside ``B`` hold no units
    of that slice, so the pattern height per outer block is the inner
    period and the overall period is ``C(n, n_inner) * inner_period`` rows
    on participating disks.

    To keep every physical cell used exactly once we place each outer
    block's slice in its own row band and fill non-member disks of the band
    with spare cells — the natural generalization of distributed sparing to
    wrapping (member disks also contribute their inner spare column).
    """

    name = "PDDL-wrapped"

    def __init__(self, n: int, inner: PDDLLayout, max_outer_blocks: Optional[int] = None):
        if inner.n >= n:
            raise ConfigurationError(
                f"inner layout of {inner.n} disks does not fit in {n}"
            )
        super().__init__(n=n, k=inner.k)
        self.inner = inner
        blocks = sorted(
            combinations(range(n), inner.n), key=lambda blk: blk[::-1]
        )
        if max_outer_blocks is not None:
            if max_outer_blocks < 1:
                raise ConfigurationError("max_outer_blocks must be >= 1")
            blocks = self._balanced_subset(blocks, max_outer_blocks)
        self.outer_blocks: Tuple[Tuple[int, ...], ...] = tuple(blocks)

    @staticmethod
    def _balanced_subset(blocks, count):
        """Take a rotation-balanced subset when the full CBD is too tall."""
        step = max(1, len(blocks) // count)
        return [blocks[(i * step) % len(blocks)] for i in range(count)]

    @property
    def period(self) -> int:
        return len(self.outer_blocks) * self.inner.period

    @property
    def stripes_per_period(self) -> int:
        return len(self.outer_blocks) * self.inner.stripes_per_period

    def _build_stripes(self) -> List[Stripe]:
        inner = self.inner.stripe_table().stripes
        stripes = []
        for band, members in enumerate(self.outer_blocks):
            shift = band * self.inner.period
            for data, check in inner:
                stripes.append(
                    (
                        tuple((members[d], o + shift) for d, o in data),
                        tuple((members[d], o + shift) for d, o in check),
                    )
                )
        return stripes

    def spare_cells(self) -> List[Cell]:
        """Per band: the inner layout's spare cells on their member
        disks, then the band's filler cells row by row.  A lost unit is
        rebuilt into the inner spare column's cell of its row, or into
        the row's first filler cell when the inner layout has no
        spares."""
        inner_spares = self.inner.spare_cells()
        out: List[Cell] = []
        for band, members in enumerate(self.outer_blocks):
            shift = band * self.inner.period
            out += [(members[d], o + shift) for d, o in inner_spares]
            member_set = set(members)
            for row in range(shift, shift + self.inner.period):
                out += [
                    (disk, row)
                    for disk in range(self.n)
                    if disk not in member_set
                ]
        return out

    def mapping_table_entries(self) -> int:
        return self.inner.mapping_table_entries()


def wrapped_layout(
    n: int,
    g: int,
    k: int,
    permutations: Optional[PermutationLike] = None,
    max_outer_blocks: Optional[int] = None,
) -> WrappedLayout:
    """Build the paper's wrapping example shape: inner PDDL of ``g*k + 1``
    disks inside ``n`` physical disks.

    ``max_outer_blocks`` bounds the outer complete design (the full
    ``C(n, g*k+1)`` blocks can be astronomically tall); the default keeps it
    complete only when it is at most 4096 blocks.
    """
    from repro.core.layout import pddl_for

    inner_n = g * k + 1
    if permutations is None:
        inner = pddl_for(g, k)
    else:
        inner = PDDLLayout(permutations)
    if max_outer_blocks is None and comb(n, inner_n) > 4096:
        max_outer_blocks = n  # one band per rotation, DATUM-wrapping flavour
    return WrappedLayout(n, inner, max_outer_blocks=max_outer_blocks)
