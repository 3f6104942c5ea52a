"""Arithmetic in the prime field GF(p).

The PDDL layout for a prime number of disks develops its base permutation with
addition modulo ``n``.  :class:`PrimeField` holds the coefficient arithmetic
of :class:`~repro.gf.polynomial.Polynomial`, which builds GF(p^m) for the
Bose construction.
"""

from __future__ import annotations

from repro.errors import FieldError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(value: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for 64-bit inputs.

    >>> [p for p in range(20) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if value < 2:
        return False
    for p in _SMALL_PRIMES:
        if value % p == 0:
            return value == p
    d = value - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _SMALL_PRIMES:
        x = pow(base, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(r - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def factorize(value: int) -> dict:
    """Return the prime factorization of ``value`` as ``{prime: exponent}``.

    Trial division; intended for the small integers that occur as disk counts.

    >>> factorize(60)
    {2: 2, 3: 1, 5: 1}
    """
    if value < 1:
        raise ValueError(f"cannot factorize {value}")
    factors: dict = {}
    candidate = 2
    while candidate * candidate <= value:
        while value % candidate == 0:
            factors[candidate] = factors.get(candidate, 0) + 1
            value //= candidate
        candidate += 1 if candidate == 2 else 2
    if value > 1:
        factors[value] = factors.get(value, 0) + 1
    return factors


class PrimeField:
    """The field GF(p) of integers modulo a prime ``p``.

    Elements are plain Python ints in ``range(p)``.  All operations validate
    their operands, which keeps layout bugs from silently wrapping.

    >>> f = PrimeField(7)
    >>> f.add(5, 4)
    2
    >>> f.mul(3, 5)
    1
    >>> f.inverse(3)
    5
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"PrimeField order must be prime, got {p}")
        self.order = p

    def _check(self, *values: int) -> None:
        for v in values:
            if not 0 <= v < self.order:
                raise FieldError(
                    f"{v} is not an element of GF({self.order})"
                )

    def add(self, a: int, b: int) -> int:
        """Field addition: ``(a + b) mod p``."""
        self._check(a, b)
        return (a + b) % self.order

    def sub(self, a: int, b: int) -> int:
        """Field subtraction: ``(a - b) mod p``."""
        self._check(a, b)
        return (a - b) % self.order

    def neg(self, a: int) -> int:
        """Additive inverse."""
        self._check(a)
        return (-a) % self.order

    def mul(self, a: int, b: int) -> int:
        """Field multiplication: ``(a * b) mod p``."""
        self._check(a, b)
        return a * b % self.order

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        self._check(a)
        if a == 0:
            raise FieldError("0 has no multiplicative inverse")
        return pow(a, self.order - 2, self.order)

    def __repr__(self) -> str:
        return f"PrimeField({self.order})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("PrimeField", self.order))
