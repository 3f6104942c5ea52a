"""Tests for GF(p^m) as the Bose construction builds it: polynomials over
GF(p) modulo an irreducible of degree m, elements encoded as base-p
integers, matching :class:`~repro.core.development.DigitDevelopment`."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bose import bose_base_permutation
from repro.core.development import DigitDevelopment
from repro.errors import ConfigurationError, FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField
from repro.gf.primitives import (
    element_powers,
    find_irreducible,
    find_primitive_element,
    polynomial_order,
)

#: sha256 of one ``"m powers..."`` line per m = 2..8 of the default
#: GF(2^m) power sequences, as the deleted table-built fields gave them.
GF2_POWERS_DIGEST = (
    "28345fbe6e2e28fbcea43c0ec1a1b6dcaab569b374d671666c3022a7efb42a5a"
)


class Field:
    """GF(p^m) = GF(p)[x] / (modulus) over base-p encoded ints."""

    def __init__(self, p, m):
        self.base = PrimeField(p)
        self.order = p**m
        self.modulus = find_irreducible(p, m)
        self.generator = find_primitive_element(self.modulus)

    def poly(self, a):
        return Polynomial.from_int(self.base, a)

    def add(self, a, b):
        return (self.poly(a) + self.poly(b)).to_int()

    def neg(self, a):
        return (-self.poly(a)).to_int()

    def sub(self, a, b):
        return (self.poly(a) - self.poly(b)).to_int()

    def mul(self, a, b):
        return ((self.poly(a) * self.poly(b)) % self.modulus).to_int()

    def pow(self, a, e):
        return self.poly(a).pow_mod(e, self.modulus).to_int()

    def powers(self):
        return element_powers(self.generator, self.modulus)


@pytest.fixture(scope="module")
def gf9():
    return Field(3, 2)


@pytest.fixture(scope="module")
def gf25():
    return Field(5, 2)


class TestConstruction:
    def test_rejects_composite_p(self):
        with pytest.raises(FieldError):
            find_irreducible(4, 2)

    def test_rejects_m_zero(self):
        with pytest.raises(FieldError):
            find_irreducible(3, 0)

    def test_rejects_reducible_modulus(self):
        # x^2 + 2x + 1 = (x+1)^2 over GF(3): int encoding 1 + 2*3 + 9 = 16.
        with pytest.raises(ConfigurationError):
            bose_base_permutation(2, 4, modulus=16)

    def test_rejects_nonprimitive_generator(self, gf9):
        # Any element of order < 8; -1 has order 2.
        nonprimitive = next(a for a in range(2, 9) if gf9.pow(a, 4) == 1)
        with pytest.raises(ConfigurationError):
            bose_base_permutation(
                2, 4, omega=nonprimitive, modulus=gf9.modulus.to_int()
            )


class TestArithmetic:
    def test_additive_group(self, gf9):
        for a in range(9):
            assert gf9.add(a, 0) == a
            assert gf9.add(a, gf9.neg(a)) == 0
            assert gf9.sub(a, a) == 0

    def test_multiplicative_group(self, gf9):
        powers = gf9.powers()
        for i, a in enumerate(powers):
            assert gf9.mul(a, powers[-i]) == 1
        assert gf9.mul(0, 5) == 0

    def test_generator_spans_group(self, gf25):
        assert sorted(gf25.powers()) == list(range(1, 25))

    def test_log_exp_roundtrip(self, gf25):
        powers = gf25.powers()
        for a in range(1, 25):
            assert gf25.pow(gf25.generator.to_int(), powers.index(a)) == a

    def test_pow_edge_cases(self, gf9):
        assert gf9.pow(0, 0) == 1
        assert gf9.pow(0, 3) == 0
        with pytest.raises(FieldError):
            gf9.pow(0, -1)
        with pytest.raises(FieldError):
            polynomial_order(gf9.poly(0), gf9.modulus)
        assert 0 not in gf9.powers()

    def test_out_of_range(self, gf9):
        with pytest.raises(FieldError):
            Polynomial(gf9.base, [3])
        with pytest.raises(ConfigurationError):
            bose_base_permutation(2, 4, omega=9)

    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
    )
    def test_field_axioms_gf9(self, a, b, c):
        f = Field(3, 2)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


class TestConsistency:
    def test_matches_binary_field_for_p2(self):
        lines = "".join(
            f"{m} {' '.join(map(str, Field(2, m).powers()))}\n"
            for m in range(2, 9)
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == GF2_POWERS_DIGEST

    def test_addition_matches_digit_development(self):
        f = Field(3, 3)
        dev = DigitDevelopment(3, 3)
        for a in range(0, 27, 5):
            for t in range(0, 27, 7):
                assert f.add(a, t) == dev.shift(a, t)

    def test_equality(self):
        a, b = find_irreducible(3, 2), find_irreducible(3, 2)
        assert a == b and hash(a) == hash(b)
        assert a != find_irreducible(5, 2)
