"""Table 1 driver: satisfactory base permutation search.

For each (stripe width, stripe count) cell: constructive routes first (Bose
for prime n — always a solitary '1'), then hill-climbing for groups of
growing size under a bounded budget.  Cells the search cannot settle within
budget are reported as '?', exactly like the paper's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.bose import satisfactory_permutation
from repro.core.permutation import BasePermutation
from repro.core.search import search_permutation_group
from repro.core.tables import PAPER_TABLE1
from repro.errors import ConfigurationError, SearchError
from repro.gf.prime import is_prime

if TYPE_CHECKING:
    from repro.runner.spec import Table1Spec


@dataclass(frozen=True)
class Table1Cell:
    """One cell of Table 1: permutations needed, and how we found them."""

    k: int
    g: int
    n: int
    group_size: Optional[int]  # None = not found ('?')
    method: str                # "bose", "gf2", "search", "none"
    paper_value: Optional[int]

    def rendered(self) -> str:
        return "?" if self.group_size is None else str(self.group_size)


def solve_cell(spec: Table1Spec) -> Table1Cell:
    """Find the smallest satisfactory permutation group for one
    :class:`~repro.runner.spec.Table1Spec` cell."""
    k, g = spec.k, spec.g
    n = g * k + 1
    paper = PAPER_TABLE1.get((k, g))
    try:
        perm = satisfactory_permutation(g, k)
        if is_prime(n):
            method = "bose"
        elif n & (n - 1) == 0:
            method = "gf2"
        else:
            method = "gf"  # odd prime power via GF(p^m)
        assert isinstance(perm, BasePermutation)
        return Table1Cell(k, g, n, 1, method, paper)
    except ConfigurationError:
        pass
    try:
        result = search_permutation_group(
            g, k, seed=spec.seed, restarts=spec.restarts,
            max_steps=spec.max_steps, p_max=spec.p_max,
        )
        size = 1 if isinstance(result, BasePermutation) else result.p
        return Table1Cell(k, g, n, size, "search", paper)
    except SearchError:
        return Table1Cell(k, g, n, None, "none", paper)
