"""Address and role types shared by all layouts.

The array is a grid: ``n`` disks (columns) by ``units_per_disk`` stripe units
(rows, also called *offsets*).  Every cell holds exactly one stripe unit whose
role is client data, check (parity), or distributed spare space.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Role(enum.Enum):
    """What a stripe unit's cell is used for."""

    DATA = "data"
    CHECK = "check"
    SPARE = "spare"

    def __repr__(self) -> str:  # keep table dumps compact
        return self.value


class PhysicalAddress(NamedTuple):
    """A cell of the array grid: ``(disk, offset)``.

    ``offset`` counts stripe units down the disk, 0 at the outermost edge of
    the layout pattern; the disk model later converts it to sectors.
    """

    disk: int
    offset: int


class UnitInfo(NamedTuple):
    """Inverse-mapping result: what lives at a physical cell.

    ``stripe`` is the global stripe id for DATA/CHECK cells and -1 for SPARE;
    ``position`` is the index within the stripe's data list (or the check
    list, offset by the stripe's data count) and -1 for SPARE.
    """

    role: Role
    stripe: int
    position: int
