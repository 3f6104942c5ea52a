"""Tests for GF(2^m) as the Bose construction builds it: polynomials over
GF(2) modulo an irreducible of degree m, elements encoded as the bits of
an integer in ``range(2**m)``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bose import bose_base_permutation
from repro.core.development import XorDevelopment
from repro.errors import ConfigurationError, FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField
from repro.gf.primitives import (
    element_powers,
    find_irreducible,
    find_primitive_element,
    polynomial_order,
)

GF2 = PrimeField(2)

#: The paper appendix's GF(16) modulus x^4 + x^3 + x^2 + x + 1.
PAPER_GF16_MODULUS = 0b11111


def element(value):
    return Polynomial.from_int(GF2, value)


def mul(a, b, modulus):
    return ((element(a) * element(b)) % modulus).to_int()


@pytest.fixture(scope="module")
def gf16():
    return element(PAPER_GF16_MODULUS)


class TestConstruction:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(ConfigurationError):
            bose_base_permutation(3, 5, modulus=0b10001)  # x^4 + 1

    def test_wrong_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            bose_base_permutation(3, 5, modulus=0b111)

    def test_nonprimitive_generator_rejected(self):
        # x (= 2) has order 5 for the paper modulus.
        with pytest.raises(ConfigurationError):
            bose_base_permutation(
                3, 5, omega=2, modulus=PAPER_GF16_MODULUS
            )

    def test_default_modulus_found(self):
        modulus = find_irreducible(2, 3)
        powers = element_powers(find_primitive_element(modulus), modulus)
        assert sorted(powers) == list(range(1, 8))

    def test_m_zero_rejected(self):
        with pytest.raises(FieldError):
            find_irreducible(2, 0)


class TestPaperExample:
    def test_generator_power_sequence(self, gf16):
        # Appendix: successive powers of x+1 are 1 3 5 15 14 13 8 7 9 4 12
        # 11 2 6 10.
        assert element_powers(find_primitive_element(gf16), gf16) == [
            1, 3, 5, 15, 14, 13, 8, 7, 9, 4, 12, 11, 2, 6, 10,
        ]

    def test_generator_is_x_plus_one(self, gf16):
        assert find_primitive_element(gf16).to_int() == 3


class TestArithmetic:
    def test_add_is_xor(self):
        assert (element(0b1010) + element(0b0110)).to_int() == 0b1100
        assert (element(0b1010) - element(0b0110)).to_int() == 0b1100
        assert XorDevelopment(16).shift(0b1010, 0b0110) == 0b1100

    def test_neg_is_identity(self):
        for a in range(16):
            assert (-element(a)).to_int() == a

    def test_mul_by_zero(self, gf16):
        for a in range(16):
            assert mul(a, 0, gf16) == 0
            assert mul(0, a, gf16) == 0

    def test_inverse(self, gf16):
        # w^i * w^(15 - i) = w^15 = 1.
        powers = element_powers(find_primitive_element(gf16), gf16)
        for i, a in enumerate(powers):
            assert mul(a, powers[-i], gf16) == 1

    def test_inverse_of_zero(self, gf16):
        with pytest.raises(FieldError):
            polynomial_order(element(0), gf16)

    def test_pow(self, gf16):
        for a in range(1, 16):
            acc = 1
            for e in range(16):
                assert element(a).pow_mod(e, gf16).to_int() == acc
                acc = mul(acc, a, gf16)

    def test_pow_of_zero(self, gf16):
        assert element(0).pow_mod(0, gf16).to_int() == 1
        assert element(0).pow_mod(5, gf16).to_int() == 0
        with pytest.raises(FieldError):
            element(0).pow_mod(-1, gf16)

    def test_log_antilog_roundtrip(self, gf16):
        generator = find_primitive_element(gf16)
        powers = element_powers(generator, gf16)
        for a in range(1, 16):
            assert generator.pow_mod(powers.index(a), gf16).to_int() == a

    def test_log_of_zero(self, gf16):
        assert 0 not in element_powers(find_primitive_element(gf16), gf16)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            bose_base_permutation(3, 5, omega=16, modulus=PAPER_GF16_MODULUS)

    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    def test_field_axioms(self, a, b, c):
        f = element(PAPER_GF16_MODULUS)
        assert mul(a, b, f) == mul(b, a, f)
        assert mul(mul(a, b, f), c, f) == mul(a, mul(b, c, f), f)
        assert mul(a, b ^ c, f) == mul(a, b, f) ^ mul(a, c, f)


class TestEquality:
    def test_equal_fields(self):
        # The default modulus is found the same way on every run.
        a, b = find_irreducible(2, 4), find_irreducible(2, 4)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_m(self):
        assert find_irreducible(2, 3) != find_irreducible(2, 4)
