"""The Bose construction of satisfactory base permutations (paper §3).

For ``n = g*k + 1`` disks, ``n = p**m`` a prime power:

1. find a primitive element ``w`` of GF(n),
2. deal the nonzero elements round-robin into blocks
   ``B_i = { w**(i-1), w**(g+i-1), ..., w**(g(k-1)+i-1) }``,
3. the base permutation is ``(0, B_1, B_2, ..., B_g)``.

The blocks form a difference family under GF(n)'s addition, hence a
near-resolvable design, hence the layout developed with that addition
distributes reconstruction evenly.  The paper: the construction "also
works when n is a power of a prime", with the addition "within the
underlying finite field GF(n)": modulo ``n`` for prime ``n``, XOR for
powers of two, digit-wise mod ``p`` otherwise
(:func:`~repro.core.development.development_for`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.development import development_for
from repro.core.permutation import BasePermutation
from repro.errors import ConfigurationError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField, factorize
from repro.gf.primitives import (
    element_powers,
    find_irreducible,
    find_primitive_element,
    is_primitive_element,
)


def bose_base_permutation(
    g: int,
    k: int,
    omega: Optional[int] = None,
    modulus: Optional[int] = None,
) -> BasePermutation:
    """Bose base permutation for ``n = g*k + 1`` a prime power ``p**m``.

    GF(n) is GF(p)[x] modulo ``modulus``, an irreducible polynomial of
    degree ``m``; ``omega`` is the primitive element whose powers are
    dealt.  Both are base-``p`` encoded polynomials, so for prime ``n``
    they are residues: the paper uses omega = 3 for n = 7.  By default
    the modulus is the first irreducible polynomial and omega the first
    primitive element that :mod:`repro.gf.primitives` finds.  The
    appendix's GF(16) takes modulus x^4+x^3+x^2+x+1 (0b11111), whose
    first primitive element is x + 1.

    >>> bose_base_permutation(2, 3).values
    (0, 1, 2, 4, 3, 6, 5)
    >>> bose_base_permutation(3, 5, modulus=0b11111).values
    (0, 1, 15, 8, 4, 2, 3, 14, 7, 12, 6, 5, 13, 9, 11, 10)
    """
    if g < 1 or k < 2:
        raise ConfigurationError(f"need g >= 1 and k >= 2, got g={g}, k={k}")
    n = g * k + 1
    factors = factorize(n)
    if len(factors) != 1:
        raise ConfigurationError(
            f"Bose construction needs n = g*k + 1 a prime power; {n} is not"
        )
    ((p, m),) = factors.items()
    field = PrimeField(p)
    if modulus is None:
        poly = find_irreducible(p, m)
    elif n <= modulus < n * p and (
        Polynomial.from_int(field, modulus).is_irreducible()
    ):
        poly = Polynomial.from_int(field, modulus)
    else:
        raise ConfigurationError(
            f"{modulus} is not an irreducible degree-{m} polynomial over"
            f" GF({p})"
        )
    if omega is None:
        generator = find_primitive_element(poly)
    elif 0 <= omega < n and is_primitive_element(
        Polynomial.from_int(field, omega), poly
    ):
        generator = Polynomial.from_int(field, omega)
    else:
        raise ConfigurationError(f"{omega} is not primitive in GF({n})")
    powers = element_powers(generator, poly)
    values = [0]
    for i in range(g):
        values.extend(powers[j * g + i] for j in range(k))
    perm = BasePermutation(values, k, spares=1)
    assert perm.is_satisfactory(development_for(n)), (
        "Bose construction must be satisfactory"
    )
    return perm
