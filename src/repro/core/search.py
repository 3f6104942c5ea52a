"""Hill-climbing search for satisfactory base permutations (paper §3).

"Using simple hill-climbing from random starting points, our program locates
permutations which are satisfactory or almost satisfactory.  If it cannot
find a satisfactory permutation, it combines almost satisfactory permutations
into small groups."  We implement that directly: the state is a group of
``p`` permutations, the objective is the non-uniformity of the *combined*
reconstruction-read tally, and moves swap two entries inside one
permutation.  Local optima are escaped with small random kicks before a
full restart, which is what makes the larger composite-``n`` cells of
Table 1 tractable.  Every searched layout has one spare column (column
0), so ``n = g*k + 1``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Union

from repro.core.development import Development, ModularDevelopment
from repro.core.permutation import BasePermutation, PermutationGroup
from repro.errors import SearchError

#: Random-kick escapes from local optima per hill climb before a restart.
KICKS = 8


def _tally_badness(
    perms: Sequence[Sequence[int]],
    k: int,
    dev: Development,
) -> int:
    """Sum of squared deviations of the combined tally from ``p*(k-1)``.

    Operates on raw value lists — no object construction — because the
    search evaluates this tens of thousands of times.
    """
    n = dev.n
    tally = [0] * n
    for values in perms:
        inverse = [0] * n
        for column, disk in enumerate(values):
            inverse[disk] = column
        for t in range(n):
            column = inverse[dev.unshift(0, t)]
            if column == 0:
                continue  # the spare column
            start = 1 + (column - 1) // k * k
            for other in range(start, start + k):
                if other == column:
                    continue
                tally[dev.shift(values[other], t)] += 1
    ideal = len(perms) * (k - 1)
    # Disk 0 is the reference failure; survivors are disks 1..n-1.
    return sum((count - ideal) ** 2 for count in tally[1:])


def _climb(
    rng: random.Random,
    perms: List[List[int]],
    k: int,
    dev: Development,
    max_steps: int,
) -> int:
    """First-improvement hill climbing with random kicks; mutates
    ``perms`` in place and returns the final badness."""
    n = dev.n
    p = len(perms)
    badness = _tally_badness(perms, k, dev)
    steps = 0
    kicks_left = KICKS
    while badness > 0 and steps < max_steps:
        improved = False
        which = rng.randrange(p)
        values = perms[which]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        for i, j in pairs:
            steps += 1
            values[i], values[j] = values[j], values[i]
            candidate = _tally_badness(perms, k, dev)
            if candidate < badness:
                badness = candidate
                improved = True
                break
            values[i], values[j] = values[j], values[i]
            if steps >= max_steps:
                break
        if not improved:
            if kicks_left <= 0:
                break
            kicks_left -= 1
            # Kick: a few random swaps to hop out of the local optimum.
            for _ in range(3):
                a, b = rng.randrange(n), rng.randrange(n)
                values[a], values[b] = values[b], values[a]
            badness = _tally_badness(perms, k, dev)
    return badness


def search_permutation_group(
    g: int,
    k: int,
    p: int = 0,
    dev: Optional[Development] = None,
    seed: int = 0,
    restarts: int = 40,
    max_steps: int = 3000,
    p_max: int = 4,
) -> Union[BasePermutation, PermutationGroup]:
    """Find a satisfactory base permutation or group for ``(g, k)``.

    With ``p == 0`` (the default) group sizes 1, 2, ..., ``p_max`` are
    tried in turn, mirroring Table 1's preference for solitary
    permutations; a fixed ``p`` searches only that size.  Returns a
    :class:`~repro.core.permutation.BasePermutation` when a solitary
    permutation suffices, otherwise a
    :class:`~repro.core.permutation.PermutationGroup`.

    Raises :class:`~repro.errors.SearchError` if nothing satisfactory is
    found within the budget — the paper's Table 1 records such cells as
    "?".
    """
    n = g * k + 1
    dev = dev or ModularDevelopment(n)
    sizes = [p] if p > 0 else list(range(1, p_max + 1))
    rng = random.Random(seed)
    for size in sizes:
        for _ in range(restarts):
            perms = []
            for _ in range(size):
                values = list(range(n))
                rng.shuffle(values)
                perms.append(values)
            badness = _climb(rng, perms, k, dev, max_steps)
            if badness == 0:
                group = PermutationGroup(
                    [BasePermutation(v, k) for v in perms]
                )
                assert group.is_satisfactory(dev)
                if group.p == 1:
                    return group.permutations[0]
                return group
    raise SearchError(
        f"no satisfactory permutation group (p <= {max(sizes)}) found for"
        f" g={g}, k={k}, spares=1 within budget"
    )

