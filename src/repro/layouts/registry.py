"""Name-keyed layout factory used by experiments and examples.

The five schemes of the paper's evaluation are registered under the names
they carry in the figures; extra aliases cover the library's additions.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.layouts.base import Layout
from repro.layouts.datum import DatumLayout
from repro.layouts.parity_decluster import ParityDeclusteringLayout
from repro.layouts.prime import PrimeLayout
from repro.layouts.pseudorandom import PseudoRandomLayout
from repro.layouts.raid5 import LeftSymmetricRaid5Layout
from repro.layouts.relpr import RelprLayout


def _make_pddl(n: int, k: int) -> Layout:
    from repro.core.layout import pddl_for

    if (n - 1) % k != 0:
        raise ConfigurationError(
            f"PDDL needs n = g*k + 1; got n={n}, k={k}"
        )
    return pddl_for((n - 1) // k, k)


def _make_raid5(n: int, k: int) -> Layout:
    return LeftSymmetricRaid5Layout(n)


_FACTORIES: Dict[str, Callable[[int, int], Layout]] = {
    "pddl": _make_pddl,
    "raid5": _make_raid5,
    "raid-5": _make_raid5,
    "parity-declustering": ParityDeclusteringLayout,
    "datum": DatumLayout,
    "prime": PrimeLayout,
    "pseudo-random": PseudoRandomLayout,
    "relpr": RelprLayout,
}

#: Display names matching the paper's figures.
DISPLAY_NAMES = {
    "pddl": "PDDL",
    "raid5": "RAID 5",
    "parity-declustering": "Parity Declustering",
    "datum": "DATUM",
    "prime": "PRIME",
    "pseudo-random": "Pseudo-Random",
    "relpr": "RELPR",
}


def available_layouts() -> List[str]:
    """Canonical registry keys."""
    return sorted(set(_FACTORIES) - {"raid-5"})


def make_layout(name: str, n: int, k: int) -> Layout:
    """Build a layout by registry name.

    >>> make_layout("raid5", 13, 13).name
    'RAID-5'
    """
    key = name.lower().replace("_", "-").strip()
    if key not in _FACTORIES:
        raise ConfigurationError(
            f"unknown layout {name!r}; available: {available_layouts()}"
        )
    return _FACTORIES[key](n, k)
