"""Tests for irreducible polynomial search and primitive elements."""

import pytest

from repro.errors import FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField, is_prime
from repro.gf.primitives import (
    element_powers,
    find_irreducible,
    find_primitive_element,
    is_primitive_element,
    polynomial_order,
)


def residue_field(p):
    """GF(p) as GF(p)[x] modulo the degree-1 polynomial x."""
    return find_irreducible(p, 1)


def constant(p, c):
    return Polynomial.from_int(PrimeField(p), c)


class TestPrimitiveRoot:
    """Primitive roots modulo p: primitive elements over degree-1 moduli."""

    def test_paper_example_mod7(self):
        # Paper §3: "3 is a primitive element since 3^0=1, 3^1=3, 3^2=2,
        # 3^3=6, 3^4=4, 3^5=5".
        assert is_primitive_element(constant(7, 3), residue_field(7))
        powers = element_powers(constant(7, 3), residue_field(7))
        assert powers == [1, 3, 2, 6, 4, 5]

    def test_smallest_roots(self):
        def smallest(p):
            return find_primitive_element(residue_field(p)).to_int()

        assert smallest(7) == 3
        assert smallest(13) == 2
        assert smallest(11) == 2
        assert smallest(41) == 6
        assert smallest(2) == 1
        # The smallest primitive root of every prime below 400.
        primes = [p for p in range(2, 400) if is_prime(p)]
        assert [smallest(p) for p in primes] == [
            1, 2, 2, 3, 2, 2, 3, 2, 5, 2, 3, 2, 6, 3, 5, 2, 2, 2, 2, 7,
            5, 3, 2, 3, 5, 2, 5, 2, 6, 3, 3, 2, 3, 2, 2, 6, 5, 2, 5, 2,
            2, 2, 19, 5, 2, 3, 2, 3, 2, 6, 3, 7, 7, 6, 3, 5, 2, 6, 5, 3,
            3, 2, 5, 17, 10, 2, 3, 10, 2, 2, 3, 7, 6, 2, 2, 5, 2, 5,
        ]

    def test_root_generates_whole_group(self):
        for p in [5, 7, 11, 13, 23, 31]:
            modulus = residue_field(p)
            w = find_primitive_element(modulus)
            assert sorted(element_powers(w, modulus)) == list(range(1, p))

    def test_count_of_primitive_roots(self):
        # phi(phi(13)) = phi(12) = 4 primitive roots mod 13.
        modulus = residue_field(13)
        assert sum(
            is_primitive_element(constant(13, c), modulus)
            for c in range(1, 13)
        ) == 4

    def test_nonprime_rejected(self):
        with pytest.raises(FieldError):
            find_irreducible(8, 1)

    def test_zero_is_not_primitive(self):
        modulus = residue_field(7)
        assert not is_primitive_element(constant(7, 0), modulus)
        # 7 encodes x, which is 0 modulo x.
        assert not is_primitive_element(constant(7, 7), modulus)


class TestFindIrreducible:
    @pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (2, 4), (3, 2), (5, 2), (2, 6)])
    def test_result_is_irreducible_monic(self, p, m):
        poly = find_irreducible(p, m)
        assert poly.degree == m
        assert poly.coeffs[-1] == 1
        assert poly.is_irreducible()

    def test_degree_zero_rejected(self):
        with pytest.raises(FieldError):
            find_irreducible(2, 0)


class TestPrimitiveElements:
    def test_paper_gf16(self):
        # Appendix: modulus x^4+x^3+x^2+x+1, generator x+1, powers
        # 1 3 5 15 14 13 8 7 9 4 12 11 2 6 10.
        gf2 = PrimeField(2)
        modulus = Polynomial(gf2, [1, 1, 1, 1, 1])
        generator = Polynomial(gf2, [1, 1])
        assert is_primitive_element(generator, modulus)
        assert element_powers(generator, modulus) == [
            1, 3, 5, 15, 14, 13, 8, 7, 9, 4, 12, 11, 2, 6, 10,
        ]

    def test_x_is_not_primitive_for_paper_modulus(self):
        # x has order 5 modulo x^4+x^3+x^2+x+1 (it divides x^5 - 1).
        gf2 = PrimeField(2)
        modulus = Polynomial(gf2, [1, 1, 1, 1, 1])
        x = Polynomial.x(gf2)
        assert polynomial_order(x, modulus) == 5
        assert not is_primitive_element(x, modulus)

    def test_find_primitive_element(self):
        gf2 = PrimeField(2)
        modulus = Polynomial(gf2, [1, 1, 1, 1, 1])
        gen = find_primitive_element(modulus)
        assert is_primitive_element(gen, modulus)
        # Deterministic scan finds x+1 first for this modulus.
        assert gen.to_int() == 3

    def test_order_of_zero_raises(self):
        gf2 = PrimeField(2)
        modulus = Polynomial(gf2, [1, 1, 1])
        with pytest.raises(FieldError):
            polynomial_order(Polynomial.zero(gf2), modulus)

    def test_powers_enumerate_group(self):
        gf3 = PrimeField(3)
        modulus = find_irreducible(3, 2)
        gen = find_primitive_element(modulus)
        powers = element_powers(gen, modulus)
        assert len(powers) == 8
        assert sorted(powers) == list(range(1, 9))
