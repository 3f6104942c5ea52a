"""Tests for polynomial arithmetic over GF(p)."""

import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def poly_strategy(field, max_degree=6):
    return st.lists(
        st.integers(min_value=0, max_value=field.order - 1),
        min_size=0,
        max_size=max_degree + 1,
    ).map(lambda cs: Polynomial(field, cs))


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial(GF2, [1, 0, 1, 0, 0])
        assert p.coeffs == (1, 0, 1)
        assert p.degree == 2

    def test_zero_polynomial(self):
        z = Polynomial.zero(GF3)
        assert z.is_zero()
        assert z.degree == -1

    def test_invalid_coefficient(self):
        with pytest.raises(FieldError):
            Polynomial(GF2, [2])

    def test_int_roundtrip(self):
        for value in range(64):
            assert Polynomial.from_int(GF2, value).to_int() == value
        for value in range(81):
            assert Polynomial.from_int(GF3, value).to_int() == value

    def test_negative_int_rejected(self):
        # A negative value once looped forever; the alarm turns a
        # regression into a failure instead of a stalled suite.
        def timed_out(signum, frame):
            raise AssertionError("from_int(-1) did not return")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(2)
        try:
            for field in (GF2, GF3):
                with pytest.raises(FieldError):
                    Polynomial.from_int(field, -1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestArithmetic:
    def test_add_in_gf2_is_xor(self):
        a = Polynomial.from_int(GF2, 0b1011)
        b = Polynomial.from_int(GF2, 0b0110)
        assert (a + b).to_int() == 0b1101

    def test_mul_example(self):
        # (x + 1)^2 = x^2 + 1 over GF(2)
        xp1 = Polynomial(GF2, [1, 1])
        assert (xp1 * xp1).coeffs == (1, 0, 1)

    def test_divmod_identity(self):
        num = Polynomial(GF5, [3, 0, 2, 4, 1])
        den = Polynomial(GF5, [1, 2, 1])
        q, r = num.divmod(den)
        assert q * den + r == num
        assert r.degree < den.degree

    def test_division_by_zero_raises(self):
        with pytest.raises(FieldError):
            Polynomial(GF2, [1]).divmod(Polynomial.zero(GF2))

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldError):
            Polynomial(GF2, [1]) + Polynomial(GF3, [1])

    @given(poly_strategy(GF3), poly_strategy(GF3))
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(poly_strategy(GF5), poly_strategy(GF5), poly_strategy(GF5))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy(GF3), poly_strategy(GF3, max_degree=3))
    def test_divmod_roundtrip(self, a, b):
        if b.is_zero():
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


class TestPowMod:
    def test_matches_naive(self):
        mod = Polynomial(GF2, [1, 1, 0, 0, 1])  # x^4 + x + 1
        base = Polynomial(GF2, [0, 1])
        acc = Polynomial.one(GF2)
        for e in range(20):
            assert base.pow_mod(e, mod) == acc
            acc = (acc * base) % mod

    def test_negative_exponent_rejected(self):
        with pytest.raises(FieldError):
            Polynomial(GF2, [0, 1]).pow_mod(-1, Polynomial(GF2, [1, 1]))


class TestGcd:
    def test_gcd_of_multiples(self):
        f = Polynomial(GF5, [1, 1])  # x + 1
        g = Polynomial(GF5, [2, 1])  # x + 2, coprime with x + 1 and x + 4
        a = f * g
        b = f * Polynomial(GF5, [3, 1])  # (x + 1)(x + 3)
        gcd = a.gcd(b)
        assert gcd % f == Polynomial.zero(GF5)
        assert gcd.degree == 1
        assert gcd.coeffs[-1] == 1  # monic


class TestIrreducibility:
    def test_paper_gf16_modulus_is_irreducible(self):
        # x^4 + x^3 + x^2 + x + 1, the appendix's modulus for n = 16.
        assert Polynomial(GF2, [1, 1, 1, 1, 1]).is_irreducible()

    def test_known_reducible(self):
        # x^4 + 1 = (x + 1)^4 over GF(2)
        assert not Polynomial(GF2, [1, 0, 0, 0, 1]).is_irreducible()

    def test_degree_one_always_irreducible(self):
        assert Polynomial(GF3, [2, 1]).is_irreducible()

    def test_constants_not_irreducible(self):
        assert not Polynomial(GF2, [1]).is_irreducible()
        assert not Polynomial.zero(GF2).is_irreducible()

    def test_gf2_degree2(self):
        # Only x^2 + x + 1 is irreducible of degree 2 over GF(2).
        irreducible = [
            Polynomial.from_int(GF2, v).coeffs
            for v in range(4, 8)
            if Polynomial.from_int(GF2, v).is_irreducible()
        ]
        assert irreducible == [(1, 1, 1)]

    def test_count_of_irreducibles_degree3_gf2(self):
        # There are exactly two: x^3+x+1 and x^3+x^2+1.
        count = sum(
            1
            for v in range(8, 16)
            if Polynomial.from_int(GF2, v).is_irreducible()
        )
        assert count == 2
