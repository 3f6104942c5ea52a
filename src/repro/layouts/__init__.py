"""Disk-array data layouts.

A *layout* is a pure function family mapping client data units to physical
``(disk, offset)`` addresses, organized in stripes of ``k`` units (``k - 1``
data + 1 check).  This package defines the common interface
(:class:`~repro.layouts.base.Layout`), the paper's comparison layouts
(left-symmetric RAID-5, Parity Declustering, DATUM, PRIME, Pseudo-Random),
the machine-checkable layout goals #1-#8
(:mod:`~repro.layouts.properties`), and a name registry used by the
experiment harness.  PDDL itself lives in :mod:`repro.core`.
"""

from repro.layouts.address import PhysicalAddress, Role, UnitInfo
from repro.layouts.base import Layout
from repro.layouts.datum import DatumLayout
from repro.layouts.parity_decluster import ParityDeclusteringLayout
from repro.layouts.prime import PrimeLayout
from repro.layouts.pseudorandom import PseudoRandomLayout
from repro.layouts.raid5 import LeftSymmetricRaid5Layout
from repro.layouts.registry import available_layouts, make_layout
from repro.layouts.relpr import RelprLayout

__all__ = [
    "DatumLayout",
    "Layout",
    "LeftSymmetricRaid5Layout",
    "ParityDeclusteringLayout",
    "PhysicalAddress",
    "PrimeLayout",
    "PseudoRandomLayout",
    "RelprLayout",
    "Role",
    "UnitInfo",
    "available_layouts",
    "make_layout",
]
