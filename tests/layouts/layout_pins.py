"""Pinned digests of every layout's stripe table, spare cells and
failure tables (and their regenerator).

Each configuration gets one sha256 over the ``repr`` of:

- its stripe table, ``tuple(layout.stripe_table())``;
- its spare cells as ``(disk, row)`` tuples, in the order the layout
  lists them;
- each disk's failure table as plain ``(row, position, data, check,
  home)`` tuples, or ``(exception type, message)`` where building it
  raises.

The configurations are every registry layout that builds at
``4 <= n <= 21`` with ``3 <= k <= 5`` (``k = n`` for RAID-5), four
wrapped layouts (one over a spare-less PDDL), two multi-check PDDLs and
two pseudo-random layouts.  Building all of them takes about 9 s, so
tier-1 (``tests/layouts/test_layout_pins.py``) checks the configurations
that :func:`is_tier1` names, and CI regenerates the whole file and
diffs it like the golden traces.

To regenerate after an *intentional* change to a layout (review the diff
first):

    PYTHONPATH=src python -m tests.layouts.layout_pins
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Tuple

PINS_PATH = Path(__file__).resolve().parents[1] / "data" / (
    "layout_tables.json"
)

#: Registry configurations at most this wide are checked in tier-1.
TIER1_MAX_N = 13


def _registry_builders() -> Dict[str, Tuple[int, Callable]]:
    from repro.layouts.registry import available_layouts, make_layout

    return {
        f"{name}-{n}-{k}": (
            n,
            lambda name=name, n=n, k=k: make_layout(name, n, k),
        )
        for name in available_layouts()
        for n in range(4, 22)
        for k in ([n] if name == "raid5" else range(3, 6))
    }


def _extra_builders() -> Dict[str, Callable]:
    from repro.core.layout import PDDLLayout
    from repro.core.permutation import BasePermutation, PermutationGroup
    from repro.core.wrapping import WrappedLayout, wrapped_layout
    from repro.layouts.pseudorandom import PseudoRandomLayout

    return {
        "wrapped-30-4-7": lambda: wrapped_layout(30, 4, 7),
        "wrapped-14-3-4": lambda: wrapped_layout(14, 3, 4),
        "wrapped-20-2-3": lambda: wrapped_layout(20, 2, 3),
        "wrapped-9-over-spareless-7": lambda: WrappedLayout(
            9,
            PDDLLayout(
                BasePermutation(tuple(range(7)), k=7, spares=0)
            ),
        ),
        "pddl-pq-10": lambda: PDDLLayout(
            BasePermutation(
                (0, 5, 1, 8, 3, 9, 2, 7, 4, 6), k=4, spares=2, checks=2
            )
        ),
        "pddl-group-14": lambda: PDDLLayout(
            PermutationGroup(
                [
                    BasePermutation(
                        (0, 9, 3, 12, 6, 1, 10, 4, 13, 7, 2, 11, 5, 8),
                        k=4, spares=2, checks=2,
                    ),
                    BasePermutation(
                        tuple(range(14)), k=4, spares=2, checks=2
                    ),
                ]
            )
        ),
        "pseudo-random-14-4-spares-2": lambda: PseudoRandomLayout(
            14, 4, spares=2
        ),
        "pseudo-random-13-4-table3": lambda: PseudoRandomLayout(
            13, 4, rows=128, seed=0
        ),
    }


def is_tier1(key: str) -> bool:
    """Every extra configuration, and registry ones with ``n <= 13``."""
    return key in _extra_builders() or (
        int(key.split("-")[-2]) <= TIER1_MAX_N
    )


def _failure_rows(layout, disk: int):
    from repro.errors import ReproError

    try:
        return [
            None if lost is None else tuple(lost)
            for lost in layout.failure_table(disk)
        ]
    except ReproError as exc:  # the raise is part of the pin
        return (type(exc).__name__, str(exc))


def layout_digest(layout) -> str:
    spares = list(layout.spare_cells())
    failures = [_failure_rows(layout, disk) for disk in range(layout.n)]
    return hashlib.sha256(
        repr((tuple(layout.stripe_table()), spares, failures)).encode()
    ).hexdigest()


def compute_digests(tier1_only: bool = False) -> Dict[str, str]:
    """``{key: digest}`` of every extra configuration and of every
    registry configuration that builds (only the :func:`is_tier1` ones
    with ``tier1_only``)."""
    from repro.errors import ReproError

    digests = {}
    for key, (n, build) in _registry_builders().items():
        if tier1_only and n > TIER1_MAX_N:
            continue
        try:
            layout = build()
        except ReproError:
            continue
        digests[key] = layout_digest(layout)
    for key, build in _extra_builders().items():
        digests[key] = layout_digest(build())
    return digests


def main() -> None:
    digests = compute_digests()
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} layout digests to {PINS_PATH}")


if __name__ == "__main__":
    main()
