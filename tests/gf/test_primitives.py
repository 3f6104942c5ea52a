"""Tests for primitive roots and irreducible polynomial search."""

import pytest

from repro.errors import FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField
from repro.gf.primitives import (
    element_powers,
    find_irreducible,
    find_primitive_element,
    is_primitive_element,
    is_primitive_root,
    polynomial_order,
    primitive_root,
)


class TestPrimitiveRoot:
    def test_paper_example_mod7(self):
        # Paper §3: "3 is a primitive element since 3^0=1, 3^1=3, 3^2=2,
        # 3^3=6, 3^4=4, 3^5=5".
        assert is_primitive_root(3, 7)
        powers = [pow(3, e, 7) for e in range(6)]
        assert powers == [1, 3, 2, 6, 4, 5]

    def test_smallest_roots(self):
        assert primitive_root(7) == 3
        assert primitive_root(13) == 2
        assert primitive_root(11) == 2
        assert primitive_root(41) == 6

    def test_root_generates_whole_group(self):
        for p in [5, 7, 11, 13, 23, 31]:
            w = primitive_root(p)
            assert {pow(w, e, p) for e in range(p - 1)} == set(range(1, p))

    def test_count_of_primitive_roots(self):
        # phi(phi(13)) = phi(12) = 4 primitive roots mod 13.
        assert sum(is_primitive_root(c, 13) for c in range(1, 13)) == 4

    def test_nonprime_rejected(self):
        with pytest.raises(FieldError):
            is_primitive_root(2, 8)

    def test_zero_is_not_primitive(self):
        assert not is_primitive_root(0, 7)
        assert not is_primitive_root(7, 7)


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
