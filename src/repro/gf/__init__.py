"""Finite-field arithmetic used by PDDL constructions.

The PDDL mapping develops a base permutation by repeated addition inside
GF(n), ``n = p**m``: addition modulo ``n`` when the number of disks is
prime, bitwise XOR when it is a power of two, digit-wise addition mod
``p`` otherwise (:mod:`repro.core.development`).  The Bose construction
of satisfactory base permutations deals the powers of a primitive element
of GF(n), found here with GF(n) taken as GF(p)[x] modulo an irreducible
polynomial of degree ``m``.

Public surface:

- :class:`~repro.gf.prime.PrimeField` — GF(p) arithmetic.
- :mod:`~repro.gf.polynomial` — dense polynomials over GF(p).
- :func:`~repro.gf.primitives.find_irreducible`,
  :func:`~repro.gf.primitives.find_primitive_element` and
  :func:`~repro.gf.primitives.element_powers`.
"""

from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField, is_prime
from repro.gf.primitives import (
    element_powers,
    find_irreducible,
    find_primitive_element,
)

__all__ = [
    "Polynomial",
    "PrimeField",
    "element_powers",
    "find_irreducible",
    "find_primitive_element",
    "is_prime",
]
