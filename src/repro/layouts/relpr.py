"""RELPR and PRIME (Alvarez, Burkhard, Stockmeyer & Cristian, ISCA 1998)
— reconstructed from their published roles.

The two schemes share one multiplier construction.  PRIME
(:class:`~repro.layouts.prime.PrimeLayout`) takes a prime number of disks
and every nonzero residue as a multiplier; RELPR is its companion for
arrays whose size is not prime: the multiplier set shrinks to the units
of Z_n (residues RELatively PRime to n — the name), trading exactness for
generality.  Both are built to the properties the PDDL paper attributes
to the schemes: on-demand arithmetic mapping, zero tables, near-optimal
parallelism, and balanced parity and reconstruction — exactly for prime
``n``, *approximately* for general ``n``, the approximation being what
the paper means by "near-optimal" for these layouts.

Construction: the pattern has one *section* per multiplier ``z`` coprime
to ``n`` (``z = 1 .. n - 1`` for prime ``n``).  A section is ``k`` rows:
``k - 1`` data rows filled row-major by client units (unit ``u`` of the
section sits in row ``u // n`` at physical disk ``z * (u % n) mod n``)
and one parity row.  Stripe ``j`` of the section holds client units
``j*(k-1) .. j*(k-1)+k-2`` and its parity at logical column
``(j+1)*(k-1) mod n`` of the parity row, which requires
``gcd(k - 1, n) == 1`` so the per-section parity assignment stays a
bijection.  The multiplier makes successive sections stripe the same
logical neighbourhoods across different physical disks, which is what
spreads reconstruction load.

Known limitation (documented in DESIGN.md): per-failure reconstruction
load covers only survivors reachable as ``failed + z*delta`` with ``z`` a
unit — for composite ``n`` some survivors idle for a given failure, so
goal #3 holds only in aggregate over failures.  Parity distribution and
parallelism remain exact.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ConfigurationError, MappingError
from repro.layouts.address import PhysicalAddress, StripeUnits
from repro.layouts.base import Layout


class RelprLayout(Layout):
    """RELPR-style declustered layout for general ``n``.

    >>> lay = RelprLayout(10, 4)
    >>> lay.sections  # phi(10) multipliers: 1, 3, 7, 9
    4
    """

    name = "RELPR"

    def __init__(self, n: int, k: int):
        super().__init__(n=n, k=k)
        if k >= n:
            raise ConfigurationError(
                f"{self.name} declusters; needs k < n, got k={k}, n={n}"
            )
        if math.gcd(k - 1, n) != 1:
            raise ConfigurationError(
                f"{self.name} needs gcd(k - 1, n) = 1; gcd({k - 1}, {n}) ="
                f" {math.gcd(k - 1, n)}"
            )
        self.multipliers: List[int] = [
            z for z in range(1, n) if math.gcd(z, n) == 1
        ]

    @property
    def sections(self) -> int:
        return len(self.multipliers)

    @property
    def period(self) -> int:
        return self.sections * self.k

    @property
    def stripes_per_period(self) -> int:
        return self.sections * self.n

    def stripe_units_in_period(self, stripe_index: int) -> StripeUnits:
        if not 0 <= stripe_index < self.stripes_per_period:
            raise MappingError(f"stripe {stripe_index} outside pattern")
        section, j = divmod(stripe_index, self.n)
        z = self.multipliers[section]
        base_row = section * self.k
        data = []
        for i in range(self.k - 1):
            unit = j * (self.k - 1) + i
            row, column = divmod(unit, self.n)
            data.append(
                PhysicalAddress(z * column % self.n, base_row + row)
            )
        parity_column = (j + 1) * (self.k - 1) % self.n
        check = [
            PhysicalAddress(
                z * parity_column % self.n, base_row + self.k - 1
            )
        ]
        return StripeUnits(data=data, check=check)

    def mapping_table_entries(self) -> int:
        return 0  # purely arithmetic
