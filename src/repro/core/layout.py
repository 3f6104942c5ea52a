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
from repro.layouts.address import PhysicalAddress, Role, StripeUnits
from repro.layouts.base import Layout

PermutationLike = Union[BasePermutation, PermutationGroup]


class PDDLLayout(Layout):
    """Permutation Development Data Layout.

    >>> from repro.core.bose import bose_base_permutation
    >>> layout = PDDLLayout(bose_base_permutation(2, 3))
    >>> layout.stripe_units_in_period(0)
    StripeUnits(data=[PhysicalAddress(disk=1, offset=0), PhysicalAddress(disk=2, offset=0)], check=[PhysicalAddress(disk=4, offset=0)])
    >>> layout.relocation_target(PhysicalAddress(4, 0))
    PhysicalAddress(disk=0, offset=0)
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

    def _row_context(self, row: int):
        """(permutation, develop shift t) for a pattern row."""
        q, t = divmod(row, self.n)
        return self.group.permutations[q], t

    def stripe_units_in_period(self, stripe_index: int) -> StripeUnits:
        if not 0 <= stripe_index < self.stripes_per_period:
            raise MappingError(f"stripe {stripe_index} outside pattern")
        row, group = divmod(stripe_index, self.g)
        perm, t = self._row_context(row)
        columns = list(perm.group_columns(group))
        split = self.k - self.checks
        data = [
            PhysicalAddress(perm.disk_of_column(c, t, self.dev), row)
            for c in columns[:split]
        ]
        check = [
            PhysicalAddress(perm.disk_of_column(c, t, self.dev), row)
            for c in columns[split:]
        ]
        return StripeUnits(data=data, check=check)

    def spare_addresses_in_period(self) -> List[PhysicalAddress]:
        out = []
        for row in range(self.period):
            perm, t = self._row_context(row)
            for column in range(self.spares):
                out.append(
                    PhysicalAddress(
                        perm.disk_of_column(column, t, self.dev), row
                    )
                )
        return out

    def relocation_target(self, addr: PhysicalAddress) -> PhysicalAddress:
        """Spare cell (same row) that receives ``addr``'s rebuilt contents:
        spare column 0's.  With more than one spare column (§5: PDDL "can
        even be altered to have more than one spare disk"),
        :func:`~repro.core.multifailure.multi_rebuild_plan` rebuilds the
        i-th concurrent failure into spare column i.
        """
        if self.spares == 0:
            raise MappingError("this PDDL instance was built without spares")
        row = addr.offset % self.period
        perm, t = self._row_context(row)
        if self.locate(addr.disk, addr.offset).role is Role.SPARE:
            raise MappingError(f"{addr} is spare space; nothing to relocate")
        spare_disk = perm.disk_of_column(0, t, self.dev)
        return PhysicalAddress(spare_disk, addr.offset)

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
        perm, t = self._row_context(offset % self.period)
        return perm.disk_of_column(disk, t, self.dev)

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


def pddl_for(
    g: int,
    k: int,
    development: Optional[Development] = None,
    search_seed: int = 0,
) -> PDDLLayout:
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
            perm = search_permutation_group(g, k, seed=search_seed)
    return PDDLLayout(perm, development)
