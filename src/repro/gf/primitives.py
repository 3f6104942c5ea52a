"""Irreducible polynomials and primitive elements of GF(p^m).

The Bose construction (paper §3) needs a primitive element of GF(n) for a
prime power ``n = p**m``: GF(n) is GF(p)[x] modulo an irreducible
polynomial of degree ``m``, and the successive powers of a primitive
element give the base permutation.  For prime ``n`` the modulus has
degree 1 and the primitive element is a primitive root modulo ``n`` (the
paper's 3 for n = 7); the appendix works n = 16 with x^4 + x^3 + x^2 +
x + 1 and generator x + 1.
"""

from __future__ import annotations

from typing import List

from repro.errors import FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField, factorize


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
    """True if ``element`` generates the multiplicative group of GF(p^m).

    >>> gf7 = PrimeField(7)
    >>> x = Polynomial.x(gf7)  # GF(7) = GF(7)[x] / (x)
    >>> [is_primitive_element(Polynomial(gf7, [c]), x) for c in (0, 2, 3)]
    [False, False, True]
    """
    if (element % modulus).is_zero():
        return False
    p = element.field.order
    return polynomial_order(element, modulus) == p ** modulus.degree - 1


def find_primitive_element(modulus: Polynomial) -> Polynomial:
    """The first primitive element of GF(p^m) defined by ``modulus``.

    Scans base-p encodings upwards from 1: the constants first, so a
    degree-1 modulus gives the smallest primitive root modulo ``p``, then
    low-weight polynomials (x, x+1, x+2, ...), matching the paper's
    appendix choice of ``x + 1`` for GF(16) with x^4+x^3+x^2+x+1.

    >>> find_primitive_element(find_irreducible(7, 1)).to_int()
    3
    """
    field = modulus.field
    for value in range(1, field.order ** modulus.degree):
        candidate = Polynomial.from_int(field, value)
        if is_primitive_element(candidate, modulus):
            return candidate
    raise FieldError("no primitive element found")  # pragma: no cover


def element_powers(generator: Polynomial, modulus: Polynomial) -> List[int]:
    """The ``p**m - 1`` successive powers of ``generator`` in GF(p^m), from
    1, as base-p integers.

    The PDDL appendix lists these for GF(16): ``1 3 5 15 14 13 8 7 9 4 12 11
    2 6 10`` for generator x+1 and modulus x^4+x^3+x^2+x+1.
    """
    powers = []
    current = Polynomial.one(generator.field)
    for _ in range(generator.field.order ** modulus.degree - 1):
        powers.append(current.to_int())
        current = (current * generator) % modulus
    return powers
