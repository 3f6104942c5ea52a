"""DATUM (Alvarez, Burkhard & Cristian, ISCA 1997).

The layout pattern enumerates *all* ``C(n, k)`` stripes — the complete block
design — in colexicographic order, addressed on demand through the binomial
number system: stripe ``s`` is the colex-unranked ``k``-combination, and the
offset of a unit on disk ``d`` is the number of earlier stripes containing
``d``, a closed-form binomial sum.  No tables, a few arithmetic operations
(Table 3), optimal storage overhead and uniform declustering; the price is
the smallest disk working sets of the compared schemes, because adjacent
colex combinations overlap in ``k - 1`` of their ``k`` disks.
"""

from __future__ import annotations

from math import comb
from typing import List, Tuple

from repro.errors import ConfigurationError, MappingError
from repro.layouts.base import Layout, Stripe


def colex_rank(block: Tuple[int, ...]) -> int:
    """Rank of a sorted combination in colexicographic order.

    >>> colex_rank((0, 1))
    0
    >>> colex_rank((2, 3))
    5
    """
    return sum(comb(value, i + 1) for i, value in enumerate(block))


def colex_unrank(rank: int, k: int) -> Tuple[int, ...]:
    """Inverse of :func:`colex_rank` for ``k``-combinations.

    >>> colex_unrank(5, 2)
    (2, 3)
    """
    if rank < 0:
        raise MappingError(f"negative rank {rank}")
    block: List[int] = []
    remaining = rank
    for i in range(k, 0, -1):
        # Largest value with comb(value, i) <= remaining.
        value = i - 1
        while comb(value + 1, i) <= remaining:
            value += 1
        block.append(value)
        remaining -= comb(value, i)
    return tuple(reversed(block))


def colex_count_containing(disk: int, rank: int, k: int) -> int:
    """Number of ``k``-combinations of colex rank < ``rank`` containing
    ``disk`` — the binomial-number-system offset computation.

    A combination ``B`` precedes ``S = unrank(rank)`` iff at some position
    ``i`` it matches S's tail ``s_{i+1} .. s_k`` and its first ``i``
    elements are an arbitrary ``i``-subset of ``{0 .. s_i - 1}``.  Such a B
    contains ``disk`` iff disk is in the fixed tail (all ``C(s_i, i)``
    prefixes count) or ``disk < s_i`` (the ``C(s_i - 1, i - 1)`` prefixes
    through disk count).

    >>> colex_count_containing(2, 5, 2)  # blocks before (2,3) containing 2
    2
    """
    block = colex_unrank(rank, k)
    count = 0
    in_tail = False
    for i in range(k, 0, -1):
        s_i = block[i - 1]
        if in_tail:
            count += comb(s_i, i)
        elif disk < s_i:
            count += comb(s_i - 1, i - 1)
        if disk == s_i:
            in_tail = True
    return count


class DatumLayout(Layout):
    """DATUM: complete block design with binomial addressing.

    >>> lay = DatumLayout(5, 3)
    >>> (lay.stripes_per_period, lay.period)
    (10, 6)
    """

    name = "DATUM"

    def __init__(self, n: int, k: int):
        super().__init__(n=n, k=k)
        if k >= n:
            raise ConfigurationError(
                f"DATUM declusters; needs k < n, got k={k}, n={n}"
            )
        self._check_positions = self._balanced_check_positions()

    def _balanced_check_positions(self) -> List[int]:
        """Deterministic check-unit assignment with exact parity balance.

        ISCA'97 DATUM proves uniform check distribution; its exact
        rotation rule is not recoverable from the PDDL paper, so we use a
        deterministic least-loaded sweep over the colex stripe order
        (ties to the smallest disk).  The result is periodic and, whenever
        ``n`` divides ``C(n, k)``, exactly balanced — asserted by tests
        for the paper's configuration.
        """
        loads = [0] * self.n
        positions: List[int] = []
        blocks: List[Tuple[int, ...]] = []
        for s in range(self.stripes_per_period):
            block = colex_unrank(s, self.k)
            blocks.append(block)
            position = min(range(self.k), key=lambda i: (loads[block[i]], i))
            positions.append(position)
            loads[block[position]] += 1
        # Repair pass: colex order brings high-numbered disks in late, so
        # the greedy sweep can leave residual imbalance; move checks from
        # overloaded to underloaded member disks until balanced.
        ceiling = -(-self.stripes_per_period // self.n)
        floor = self.stripes_per_period // self.n
        changed = True
        while changed and (max(loads) > ceiling or min(loads) < floor):
            changed = False
            for s, block in enumerate(blocks):
                current = block[positions[s]]
                if loads[current] <= floor:
                    continue
                for i, disk in enumerate(block):
                    if loads[disk] < (
                        floor if loads[current] <= ceiling else ceiling
                    ):
                        loads[current] -= 1
                        loads[disk] += 1
                        positions[s] = i
                        changed = True
                        break
        return positions

    @property
    def period(self) -> int:
        # Each disk appears in C(n-1, k-1) of the C(n, k) stripes.
        return comb(self.n - 1, self.k - 1)

    @property
    def stripes_per_period(self) -> int:
        return comb(self.n, self.k)

    def _build_stripes(self) -> List[Stripe]:
        stripes = []
        for s, check_pos in enumerate(self._check_positions):
            cells = [
                (disk, colex_count_containing(disk, s, self.k))
                for disk in colex_unrank(s, self.k)
            ]
            check = cells.pop(check_pos)
            stripes.append((tuple(cells), (check,)))
        return stripes

    def mapping_table_entries(self) -> int:
        return 0  # purely arithmetic (Table 3)
