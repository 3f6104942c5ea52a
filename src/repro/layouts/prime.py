"""PRIME (Alvarez, Burkhard, Stockmeyer & Cristian, ISCA 1998) —
reconstructed from its published properties.

PRIME is :class:`~repro.layouts.relpr.RelprLayout`'s multiplier
construction at a prime number of disks, where every nonzero residue is a
multiplier.  The ISCA'98 construction itself is not reproduced verbatim
here (the full text was unavailable); the test suite checks the
properties the PDDL paper's comparison relies on: on-demand arithmetic
mapping with zero tables (Table 3), exactly distributed parity and
reconstruction, (near-)maximal read parallelism, and ``k - 1`` contiguous
client units per stripe.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gf.prime import is_prime
from repro.layouts.relpr import RelprLayout


class PrimeLayout(RelprLayout):
    """PRIME-style declustered layout for a prime number of disks.

    >>> lay = PrimeLayout(13, 4)
    >>> (lay.period, lay.stripes_per_period)
    (48, 156)
    """

    name = "PRIME"

    def __init__(self, n: int, k: int):
        if not is_prime(n):
            raise ConfigurationError(f"PRIME needs a prime disk count, got {n}")
        super().__init__(n, k)
