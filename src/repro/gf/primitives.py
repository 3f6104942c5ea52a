"""Primitive roots and irreducible/primitive polynomials.

The Bose construction (paper §3) needs a primitive element of GF(n): for prime
``n`` that is a primitive root modulo ``n``; for ``n = 2**m`` it is a root of a
primitive polynomial, whose successive powers give the base permutation (the
appendix works n = 16 with x^4 + x^3 + x^2 + x + 1 and generator x + 1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField, factorize, is_prime


def is_primitive_root(candidate: int, p: int) -> bool:
    """True if ``candidate`` generates the multiplicative group of GF(p).

    >>> is_primitive_root(3, 7)
    True
    >>> is_primitive_root(2, 7)
    False
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    candidate %= p
    if candidate == 0:
        return False
    group = p - 1
    return all(pow(candidate, group // q, p) != 1 for q in factorize(group))


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime ``p``.

    >>> primitive_root(7)
    3
    >>> primitive_root(13)
    2
    """
    if p == 2:
        return 1
    for candidate in range(2, p):
        if is_primitive_root(candidate, p):
            return candidate
    raise FieldError(f"no primitive root found for {p}")  # pragma: no cover


def find_irreducible(p: int, degree: int) -> Polynomial:
    """Find a monic irreducible polynomial of the given degree over GF(p).

    Deterministic: scans candidate coefficient vectors in integer order so the
    same field construction is produced on every run.

    >>> find_irreducible(2, 4).coeffs
    (1, 1, 0, 0, 1)
    """
    if degree < 1:
        raise FieldError("degree must be >= 1")
    field = PrimeField(p)
    for tail in range(p ** degree):
        coeffs = []
        value = tail
        for _ in range(degree):
            coeffs.append(value % p)
            value //= p
        coeffs.append(1)
        poly = Polynomial(field, coeffs)
        if poly.is_irreducible():
            return poly
    raise FieldError(
        f"no irreducible polynomial of degree {degree} over GF({p})"
    )  # pragma: no cover


def polynomial_order(element: Polynomial, modulus: Polynomial) -> int:
    """Multiplicative order of ``element`` in GF(p^m) = GF(p)[x]/(modulus)."""
    p = element.field.order
    m = modulus.degree
    group = p ** m - 1
    reduced = element % modulus
    if reduced.is_zero():
        raise FieldError("0 has no multiplicative order")
    order = group
    for q in factorize(group):
        one = Polynomial.one(element.field)
        while order % q == 0 and reduced.pow_mod(order // q, modulus) == one:
            order //= q
    return order


def is_primitive_element(element: Polynomial, modulus: Polynomial) -> bool:
    """True if ``element`` generates the multiplicative group of GF(p^m)."""
    p = element.field.order
    return polynomial_order(element, modulus) == p ** modulus.degree - 1


def find_primitive_element(
    modulus: Polynomial, start: Optional[Polynomial] = None
) -> Polynomial:
    """Find a primitive element of GF(p^m) defined by ``modulus``.

    Scans low-weight candidates first (x, x+1, x+2, ...), matching the paper's
    appendix choice of ``x + 1`` for GF(16) with x^4+x^3+x^2+x+1.
    """
    field = modulus.field
    p = field.order
    m = modulus.degree
    for value in range(p, p ** m):
        candidate = Polynomial.from_int(field, value)
        if is_primitive_element(candidate, modulus):
            return candidate
    raise FieldError("no primitive element found")  # pragma: no cover


def element_powers(
    generator: Polynomial, modulus: Polynomial, count: Optional[int] = None
) -> List[int]:
    """Successive powers of ``generator`` in GF(p^m), as base-p integers.

    The PDDL appendix lists these for GF(16): ``1 3 5 15 14 13 8 7 9 4 12 11
    2 6 10`` for generator x+1 and modulus x^4+x^3+x^2+x+1.
    """
    p = generator.field.order
    group = p ** modulus.degree - 1
    if count is None:
        count = group
    powers = []
    current = Polynomial.one(generator.field)
    for _ in range(count):
        powers.append(current.to_int())
        current = (current * generator) % modulus
    return powers
