"""The paper's simulation parameters (Table 2), as code.

Array: 13 disks; stripe width 4 for the declustered layouts, 13 for RAID-5;
8 KB stripe units; HP 2247 drives; SSTF on a 20-request queue.  Workloads:
fixed-size aligned accesses, uniform over all data, 1-25 closed-loop
clients.

Every simulation driver assembles its array with :func:`build_array`
and attaches its own defenses to the controller it returns.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from repro.array.controller import ArrayController
from repro.layouts.base import Layout
from repro.layouts.registry import make_layout
from repro.sim.engine import SimulationEngine

PAPER_DISKS = 13
PAPER_STRIPE_WIDTH = 4           # PRIME / Parity Declustering / PDDL / DATUM
PAPER_STRIPE_UNIT_KB = 8
PAPER_SCHEDULER = "sstf"
PAPER_SCHEDULER_WINDOW = 20

#: The five schemes of the evaluation, in the figures' legend order.
PAPER_LAYOUT_NAMES = (
    "datum",
    "parity-declustering",
    "raid5",
    "pddl",
    "prime",
)


def layout_for(
    name: str,
    disks: Optional[int] = None,
    width: Optional[int] = None,
) -> Layout:
    """A layout at the paper's configuration with optional n/k overrides.

    ``width=None`` follows Table 2: RAID-5 stripes across the whole
    array, the declustered layouts use the paper's stripe width.

    Each resolved ``(name, n, k)`` is built once per process and shared
    by every later call.  Sharing is safe because layouts are immutable
    mappings: a controller that fails a disk wraps its layout in a
    relocation view instead of mutating it, and the lazy tables a layout
    fills in are pure functions of ``(name, n, k)``.

    >>> layout_for("pddl") is layout_for("pddl", disks=13, width=4)
    True
    """
    n = PAPER_DISKS if disks is None else disks
    if width is None:
        k = n if name in ("raid5", "raid-5") else PAPER_STRIPE_WIDTH
    else:
        k = width
    return _build_layout(name, n, k)


def build_array(
    name: str,
    disks: Optional[int] = None,
    width: Optional[int] = None,
    **controller_options,
) -> Tuple[SimulationEngine, Layout, ArrayController]:
    """A fresh engine, the shared :func:`layout_for` layout and a
    fault-free controller over them.

    ``controller_options`` go to :class:`ArrayController` (the drivers
    pass ``coalesce`` and ``record_timelines``).
    """
    engine = SimulationEngine()
    layout = layout_for(name, disks=disks, width=width)
    return engine, layout, ArrayController(
        engine, layout, **controller_options
    )


@functools.lru_cache(maxsize=None)
def _build_layout(name: str, n: int, k: int) -> Layout:
    return make_layout(name, n, k)


def paper_layout(name: str) -> Layout:
    """One evaluation layout at its Table 2 configuration."""
    return layout_for(name)


def paper_layouts(names: Optional[tuple] = None) -> Dict[str, Layout]:
    """All (or a subset of) the evaluation layouts, keyed by registry name.

    >>> sorted(paper_layouts())
    ['datum', 'parity-declustering', 'pddl', 'prime', 'raid5']
    """
    return {
        name: paper_layout(name)
        for name in (names or PAPER_LAYOUT_NAMES)
    }
