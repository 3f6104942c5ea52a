"""Development operators: how a base permutation is shifted per row.

The paper's mapping function is ``physical_disk = (permutation[d] + offset)``
with "+" taken inside GF(n): addition modulo ``n`` when ``n`` is prime (and,
empirically, for many composite ``n`` — Table 1), and bitwise XOR when ``n``
is a power of two.  For general prime powers ``p**m`` addition is
coefficient-wise mod ``p`` on base-``p`` digits.
"""

from __future__ import annotations

import abc

from repro.errors import ConfigurationError
from repro.gf.prime import factorize


class Development(abc.ABC):
    """An abelian group operation on ``range(n)`` used to develop rows."""

    def __init__(self, n: int):
        if n < 2:
            raise ConfigurationError(f"need n >= 2, got {n}")
        self.n = n

    @abc.abstractmethod
    def shift(self, value: int, t: int) -> int:
        """Develop ``value`` by row index ``t`` (t may exceed n; reduced)."""

    @abc.abstractmethod
    def unshift(self, value: int, t: int) -> int:
        """Inverse of :meth:`shift`: the v with ``shift(v, t) == value``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.n == self.n

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.n))


class ModularDevelopment(Development):
    """Addition modulo ``n`` — the paper's default development.

    >>> ModularDevelopment(7).shift(4, 5)
    2
    """

    def shift(self, value: int, t: int) -> int:
        return (value + t) % self.n

    def unshift(self, value: int, t: int) -> int:
        return (value - t) % self.n


class XorDevelopment(Development):
    """Bitwise XOR — addition in GF(2^m) for ``n = 2**m`` (paper appendix).

    >>> XorDevelopment(16).shift(0b1010, 0b0110)
    12
    """

    def __init__(self, n: int):
        super().__init__(n)
        if n & (n - 1):
            raise ConfigurationError(f"XOR development needs n = 2**m, got {n}")
        self.mask = n - 1

    def shift(self, value: int, t: int) -> int:
        return (value ^ t) & self.mask

    unshift = shift  # XOR is an involution


class DigitDevelopment(Development):
    """Coefficient-wise addition mod ``p`` — addition in GF(p^m).

    Encodes elements as base-``p`` integers, as
    :meth:`repro.gf.polynomial.Polynomial.to_int` encodes the powers the
    Bose construction deals (for p = 2 this is XOR,
    :class:`XorDevelopment`).

    >>> DigitDevelopment(3, 2).shift(5, 4)  # (1,2)+(1,1) = (2,0) -> 2*3+0
    6
    """

    def __init__(self, p: int, m: int):
        if m < 1:
            raise ConfigurationError(f"need m >= 1, got {m}")
        super().__init__(p**m)
        self.p = p
        self.m = m

    def _combine(self, value: int, t: int, sign: int) -> int:
        t %= self.n
        digits = []
        for _ in range(self.m):
            digits.append((value % self.p + sign * (t % self.p)) % self.p)
            value //= self.p
            t //= self.p
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def shift(self, value: int, t: int) -> int:
        return self._combine(value, t, +1)

    def unshift(self, value: int, t: int) -> int:
        return self._combine(value, t, -1)


def development_for(n: int) -> Development:
    """Pick the natural development for ``n`` disks.

    XOR for powers of two, digit-wise GF(p^m) addition for other prime
    powers, modular addition otherwise (primes and the composite entries of
    Table 1 both use it).
    """
    factors = factorize(n)
    if len(factors) == 1:
        ((p, m),) = factors.items()
        if p == 2 and m > 1:
            return XorDevelopment(n)
        if m > 1:
            return DigitDevelopment(p, m)
    return ModularDevelopment(n)
