"""The PDDL layout: permutation development over a RAID-4 template.

The virtual array is RAID Level 4 with ``s`` spare columns (usually one),
then ``g`` groups of ``k`` columns (``k - 1`` data + 1 check).  Physical row
``r`` of the pattern places virtual column ``d`` on disk
``develop(perm[d], r mod n)``; with ``p`` base permutations the pattern is
``p * n`` rows, rows ``q*n .. (q+1)*n - 1`` developing permutation ``q``.

The mapping function is the paper's two-liner::

    int virtual2physical(int disk, int offset)
        { return (permutation[disk] + offset) % n; }

generalized to XOR/GF(p^m) development and to permutation groups.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.core.development import Development, development_for
from repro.core.permutation import BasePermutation, PermutationGroup
from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress
from repro.layouts.base import Cell, Layout, Stripe

PermutationLike = Union[BasePermutation, PermutationGroup]


class PDDLLayout(Layout):
    """Permutation Development Data Layout.

    >>> from repro.core.bose import bose_base_permutation
    >>> layout = PDDLLayout(bose_base_permutation(2, 3))
    >>> layout.stripe_table().stripes[0]
    (((1, 0), (2, 0)), ((4, 0),))
    >>> layout.spare_cells()[0]
    (0, 0)
    >>> layout.failure_table(4)[0].home
    (0, 0)
    """

    name = "PDDL"

    def __init__(
        self,
        permutations: PermutationLike,
        development: Optional[Development] = None,
    ):
        if isinstance(permutations, BasePermutation):
            permutations = PermutationGroup([permutations])
        self.group = permutations
        self.dev = development or development_for(self.group.n)
        if self.dev.n != self.group.n:
            raise ConfigurationError(
                f"development over {self.dev.n} does not match n = "
                f"{self.group.n}"
            )
        super().__init__(n=self.group.n, k=self.group.k)
        self.g = self.group.g
        self.spares = self.group.spares
        self.checks = self.group.checks

    @property
    def data_per_stripe(self) -> int:
        """k - checks contiguous client data units per stripe."""
        return self.k - self.checks

    # ------------------------------------------------------------------
    # Layout interface.
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        return self.group.p * self.n

    @property
    def stripes_per_period(self) -> int:
        return self.period * self.g

    def _build_stripes(self) -> List[Stripe]:
        """Each row develops the virtual RAID-4 row: column ``c`` lands
        on disk ``virtual_to_physical(c, row)``."""
        per_stripe = self.data_per_stripe
        stripes = []
        for row in range(self.period):
            cells = [
                (self.virtual_to_physical(column, row), row)
                for column in range(self.n)
            ]
            for start in range(self.spares, self.n, self.k):
                stripe = cells[start:start + self.k]
                stripes.append(
                    (tuple(stripe[:per_stripe]), tuple(stripe[per_stripe:]))
                )
        return stripes

    def spare_cells(self) -> List[Cell]:
        """Spare column ``c`` of every row, ``c`` ascending: a lost unit
        is rebuilt into spare column 0's cell.  With more than one spare
        column (§5: PDDL "can even be altered to have more than one spare
        disk"), :func:`~repro.core.multifailure.multi_rebuild_plan`
        rebuilds the i-th concurrent failure into spare column i."""
        return [
            (self.virtual_to_physical(column, row), row)
            for row in range(self.period)
            for column in range(self.spares)
        ]

    def mapping_table_entries(self) -> int:
        """Table 3: PDDL stores ``p`` permutations of ``n`` entries."""
        return self.group.p * self.n

    # ------------------------------------------------------------------
    # The paper's raw mapping functions.
    # ------------------------------------------------------------------

    def virtual_to_physical(self, disk: int, offset: int) -> int:
        """Paper §2's ``virtual2physical``: physical disk of virtual
        address ``(disk, offset)``.

        ``disk`` is the virtual RAID-4 column; ``offset`` the stripe-unit
        row.  With a permutation group, the permutation alternates every
        ``n`` rows.
        """
        if not 0 <= disk < self.n:
            raise MappingError(f"virtual disk {disk} outside 0..{self.n - 1}")
        if offset < 0:
            raise MappingError(f"negative offset {offset}")
        q, t = divmod(offset % self.period, self.n)
        return self.group.permutations[q].disk_of_column(disk, t, self.dev)

    def virtual_disk_of(self, stripe_unit: int) -> PhysicalAddress:
        """Paper appendix ``virtualDisk``: linear client stripe-unit index
        to virtual RAID-4 address ``(column, offset)``.

        Skips spare and check columns — only client data columns are
        addressed.
        """
        if stripe_unit < 0:
            raise MappingError(f"negative stripe unit {stripe_unit}")
        dps = self.data_per_stripe
        data_per_row = self.g * dps
        offset, within = divmod(stripe_unit, data_per_row)
        column = self.spares + within + (within // dps) * self.checks
        return PhysicalAddress(column, offset)

    def __repr__(self) -> str:
        return (
            f"PDDLLayout(n={self.n}, k={self.k}, g={self.g},"
            f" p={self.group.p}, dev={type(self.dev).__name__})"
        )


def pddl_for(g: int, k: int) -> PDDLLayout:
    """Build a satisfactory PDDL layout for ``g`` stripes of width ``k``.

    Resolution order: paper-published / calibrated permutations
    (:mod:`repro.core.tables`), the Bose construction (``n`` a prime
    power), then hill-climbing search for a solitary permutation or a
    small group.
    """
    from repro.core import tables
    from repro.core.bose import bose_base_permutation
    from repro.core.search import search_permutation_group

    perm = tables.published_group(g * k + 1, k)
    if perm is None:
        try:
            perm = bose_base_permutation(g, k)
        except ConfigurationError:
            perm = search_permutation_group(g, k)
    return PDDLLayout(perm)
