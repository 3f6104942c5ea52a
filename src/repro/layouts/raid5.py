"""Left-symmetric RAID-5 (Patterson/Gibson/Katz; paper's non-declustered
baseline).

Stripe width equals the array width (``k = n``); parity rotates right-to-left
one disk per stripe, and each stripe's first data unit sits immediately after
its parity disk, so consecutive client data units fall on consecutive disks —
RAID-5 "satisfies the maximal parallelism property optimally" (paper §4).
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.layouts.base import Layout, Stripe


class LeftSymmetricRaid5Layout(Layout):
    """Left-symmetric RAID-5 over ``n`` disks.

    >>> lay = LeftSymmetricRaid5Layout(5)
    >>> lay.stripe_table().stripes[0]
    (((0, 0), (1, 0), (2, 0), (3, 0)), ((4, 0),))
    """

    name = "RAID-5"

    def __init__(self, n: int, k: int = 0):
        if k and k != n:
            raise ConfigurationError(
                f"RAID-5 stripe width equals the array width; got k={k}, n={n}"
            )
        super().__init__(n=n, k=n)

    @property
    def period(self) -> int:
        return self.n

    @property
    def stripes_per_period(self) -> int:
        return self.n

    def _build_stripes(self) -> List[Stripe]:
        n = self.n
        stripes = []
        for row in range(n):
            parity_disk = n - 1 - row
            data = tuple(
                ((parity_disk + 1 + j) % n, row) for j in range(n - 1)
            )
            stripes.append((data, ((parity_disk, row),)))
        return stripes
