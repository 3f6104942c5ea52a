"""Base permutations and their quality analysis.

A base permutation assigns each *virtual column* of the RAID-4 template a
starting physical disk.  Columns are laid out spare-first: columns
``0 .. s-1`` are distributed spare space, then ``g`` groups of ``k`` columns,
each group being ``k - 1`` client-data columns followed by one check column
(Figure 1/2 of the paper).

The quality question (goal #3) is whether reconstruction reads after a disk
failure spread evenly over the survivors; :meth:`BasePermutation
.reconstruction_read_tally` computes the per-survivor read counts for one
developed pattern, and :class:`PermutationGroup` combines several base
permutations whose individual tallies cancel (the n = 10 and n = 55 examples).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.development import Development, ModularDevelopment
from repro.errors import ConfigurationError


class BasePermutation:
    """A base permutation for ``g`` stripes of width ``k`` plus spares.

    >>> bp = BasePermutation((0, 1, 2, 4, 3, 6, 5), k=3)
    >>> bp.g, bp.spares
    (2, 1)
    >>> bp.is_satisfactory()
    True
    >>> BasePermutation(tuple(range(7)), k=3).is_satisfactory()
    False
    """

    def __init__(
        self,
        values: Sequence[int],
        k: int,
        spares: int = 1,
        checks: int = 1,
    ):
        values = tuple(values)
        n = len(values)
        if sorted(values) != list(range(n)):
            raise ConfigurationError(
                f"{values} is not a permutation of 0..{n - 1}"
            )
        if k < 2:
            raise ConfigurationError(f"stripe width must be >= 2, got {k}")
        if spares < 0:
            raise ConfigurationError(f"spares must be >= 0, got {spares}")
        if not 1 <= checks < k:
            raise ConfigurationError(
                f"checks must be in 1..{k - 1}, got {checks}"
            )
        if (n - spares) % k != 0 or n - spares <= 0:
            raise ConfigurationError(
                f"n = {n} does not decompose as g*{k} + {spares}"
            )
        self.values = values
        self.n = n
        self.k = k
        self.spares = spares
        self.checks = checks
        self.g = (n - spares) // k
        self._inverse = [0] * n
        for column, disk in enumerate(values):
            self._inverse[disk] = column

    # ------------------------------------------------------------------
    # Column structure.
    # ------------------------------------------------------------------

    def column_group(self, column: int) -> int:
        """Stripe group of a column, or -1 for spare columns."""
        if column < self.spares:
            return -1
        return (column - self.spares) // self.k

    def is_check_column(self, column: int) -> bool:
        """Check columns are the last ``checks`` columns of each group.

        The paper's §5: "PDDL can be adjusted to schemes using more than
        one check block per stripe" — the development structure distributes
        any fixed role assignment evenly.
        """
        if column < self.spares:
            return False
        return (column - self.spares) % self.k >= self.k - self.checks

    def group_columns(self, group: int) -> range:
        """Columns of stripe group ``group`` (data columns then the check)."""
        if not 0 <= group < self.g:
            raise ConfigurationError(f"group {group} outside 0..{self.g - 1}")
        start = self.spares + group * self.k
        return range(start, start + self.k)

    def column_of_disk(self, disk: int, t: int, dev: Development) -> int:
        """Which virtual column lands on ``disk`` in developed row ``t``."""
        return self._inverse[dev.unshift(disk, t)]

    def disk_of_column(self, column: int, t: int, dev: Development) -> int:
        """Physical disk of virtual column ``column`` in developed row ``t``."""
        return dev.shift(self.values[column], t)

    # ------------------------------------------------------------------
    # Goal #3: distributed reconstruction.
    # ------------------------------------------------------------------

    def reconstruction_read_tally(
        self,
        failed: int = 0,
        dev: Optional[Development] = None,
    ) -> Dict[int, int]:
        """Reads each surviving disk performs to rebuild ``failed``.

        Covers one developed pattern (``n`` rows).  In each row the failed
        disk holds exactly one virtual column; unless that column is spare,
        rebuilding it reads the ``k - 1`` other units of its stripe.

        For the paper's n = 10 example permutation the tally is uneven:

        >>> bp = BasePermutation((0, 1, 2, 8, 3, 5, 7, 4, 6, 9), k=3)
        >>> [bp.reconstruction_read_tally()[d] for d in range(1, 10)]
        [1, 3, 2, 2, 2, 2, 2, 3, 1]
        """
        dev = dev or ModularDevelopment(self.n)
        if dev.n != self.n:
            raise ConfigurationError("development size mismatch")
        if not 0 <= failed < self.n:
            raise ConfigurationError(f"failed disk {failed} out of range")
        tally = {d: 0 for d in range(self.n) if d != failed}
        for t in range(self.n):
            column = self.column_of_disk(failed, t, dev)
            group = self.column_group(column)
            if group < 0:
                continue  # the failed disk held spare space in this row
            for other in self.group_columns(group):
                if other == column:
                    continue
                tally[self.disk_of_column(other, t, dev)] += 1
        return tally

    def reconstruction_write_tally(
        self, failed: int = 0, dev: Optional[Development] = None
    ) -> Dict[int, int]:
        """Writes of reconstructed units into spare space (spare column
        0), per survivor."""
        if self.spares == 0:
            raise ConfigurationError("layout has no spare space")
        dev = dev or ModularDevelopment(self.n)
        tally = {d: 0 for d in range(self.n) if d != failed}
        for t in range(self.n):
            column = self.column_of_disk(failed, t, dev)
            if self.column_group(column) < 0:
                continue
            target = self.disk_of_column(0, t, dev)
            tally[target] += 1
        return tally

    def tally_deviation(
        self, failed: int = 0, dev: Optional[Development] = None
    ) -> int:
        """max - min of the reconstruction read tally (0 = satisfactory)."""
        tally = self.reconstruction_read_tally(failed, dev)
        return max(tally.values()) - min(tally.values())

    def is_satisfactory(self, dev: Optional[Development] = None) -> bool:
        """Goal #3 holds: every survivor reads exactly ``k - 1`` units.

        The development structure makes disk 0 representative of every
        failure (the other tallies are translations of this one).
        """
        tally = self.reconstruction_read_tally(0, dev)
        return set(tally.values()) == {self.k - 1}

    def __repr__(self) -> str:
        return (
            f"BasePermutation({self.values}, k={self.k}, spares={self.spares})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BasePermutation)
            and other.values == self.values
            and other.k == self.k
            and other.spares == self.spares
        )

    def __hash__(self) -> int:
        return hash((self.values, self.k, self.spares))


class PermutationGroup:
    """Several base permutations used together (paper §2, n = 10; Fig. 17).

    When no solitary satisfactory permutation exists, a group whose
    individual reconstruction tallies *sum* to a uniform vector still meets
    goal #3 over the combined ``p * n``-row pattern.

    >>> a = BasePermutation((0, 1, 2, 8, 3, 5, 7, 4, 6, 9), k=3)
    >>> b = BasePermutation((0, 1, 2, 4, 3, 7, 8, 5, 6, 9), k=3)
    >>> PermutationGroup([a, b]).is_satisfactory()
    True
    """

    def __init__(self, permutations: Sequence[BasePermutation]):
        if not permutations:
            raise ConfigurationError("a group needs at least one permutation")
        first = permutations[0]
        for p in permutations:
            if (p.n, p.k, p.spares, p.checks) != (
                first.n, first.k, first.spares, first.checks,
            ):
                raise ConfigurationError(
                    "all permutations in a group must share"
                    " (n, k, spares, checks)"
                )
        self.permutations: Tuple[BasePermutation, ...] = tuple(permutations)
        self.n = first.n
        self.k = first.k
        self.g = first.g
        self.spares = first.spares
        self.checks = first.checks

    @property
    def p(self) -> int:
        """Number of base permutations (Table 3's ``p``)."""
        return len(self.permutations)

    def combined_tally(
        self, failed: int = 0, dev: Optional[Development] = None
    ) -> Dict[int, int]:
        total: Dict[int, int] = {d: 0 for d in range(self.n) if d != failed}
        for perm in self.permutations:
            for d, c in perm.reconstruction_read_tally(failed, dev).items():
                total[d] += c
        return total

    def tally_deviation(
        self, failed: int = 0, dev: Optional[Development] = None
    ) -> int:
        tally = self.combined_tally(failed, dev)
        return max(tally.values()) - min(tally.values())

    def is_satisfactory(self, dev: Optional[Development] = None) -> bool:
        """Every survivor reads exactly ``p * (k - 1)`` units per pattern."""
        tally = self.combined_tally(0, dev)
        return set(tally.values()) == {self.p * (self.k - 1)}

    def __repr__(self) -> str:
        return f"PermutationGroup(p={self.p}, n={self.n}, k={self.k})"


def identity_permutation(g: int, k: int, spares: int = 1) -> BasePermutation:
    """The trivial base permutation (0 1 2 ... n-1).

    Meets goals #1/#2/#4/#6/#7 but generally not #3 — the paper's example of
    an *unsatisfactory* choice; useful as an ablation baseline.
    """
    n = g * k + spares
    return BasePermutation(tuple(range(n)), k, spares)
