"""Pinned stripe-table digests of PRIME for every prime n < 60 and every
stripe width 2 <= k < n (and their regenerator).

Each entry is the sha256 of ``repr(tuple(layout.stripe_table()))``, so
every cell of every stripe of one period is pinned across commits.
Building all 406 tables takes about 25 s, so tier-1
(``tests/layouts/test_prime.py``) checks the pairs that
:func:`tier1_pairs` names, and CI regenerates the whole file and diffs
it like the golden traces.

To regenerate after an *intentional* change to the PRIME mapping (review
the diff first):

    PYTHONPATH=src python -m tests.layouts.prime_pins
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

PINS_PATH = Path(__file__).resolve().parents[1] / "data" / (
    "prime_stripe_tables.json"
)


def prime_pairs() -> List[Tuple[int, int]]:
    """Every ``(n, k)`` with ``n < 60`` prime and ``2 <= k < n``."""
    from repro.gf.prime import is_prime

    return [
        (n, k) for n in range(2, 60) if is_prime(n) for k in range(2, n)
    ]


def tier1_pairs() -> List[Tuple[int, int]]:
    """Every pair below n = 40, and k in {2, 3, n // 2, n - 1} above."""
    return [
        (n, k)
        for n, k in prime_pairs()
        if n < 40 or k in (2, 3, n // 2, n - 1)
    ]


def table_digest(layout) -> str:
    return hashlib.sha256(
        repr(tuple(layout.stripe_table())).encode()
    ).hexdigest()


def compute_digests(pairs: Iterable[Tuple[int, int]]) -> Dict[str, str]:
    """``{"n-k": digest}`` of ``make_layout("prime", n, k)``."""
    from repro.layouts import make_layout

    return {
        f"{n}-{k}": table_digest(make_layout("prime", n, k))
        for n, k in pairs
    }


def main() -> None:
    digests = compute_digests(prime_pairs())
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} PRIME stripe-table digests to {PINS_PATH}")


if __name__ == "__main__":
    main()
