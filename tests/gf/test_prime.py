"""Unit and property tests for GF(p) arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf.polynomial import Polynomial
from repro.gf.prime import PrimeField, factorize, is_prime
from repro.gf.primitives import polynomial_order

PRIMES = [2, 3, 5, 7, 11, 13, 31, 61, 97]


class TestIsPrime:
    def test_small_values(self):
        expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        assert {p for p in range(50) if is_prime(p)} == expected

    def test_negative_and_zero(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)

    def test_carmichael_number(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_large_prime(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 - 1)


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == {}
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(97) == {97: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_product_reconstructs(self, value):
        product = 1
        for prime, exponent in factorize(value).items():
            assert is_prime(prime)
            product *= prime**exponent
        assert product == value


class TestPrimeField:
    def test_rejects_composite_order(self):
        with pytest.raises(FieldError):
            PrimeField(6)

    def test_add_sub_roundtrip(self):
        f = PrimeField(13)
        for a in range(13):
            for b in range(13):
                assert f.sub(f.add(a, b), b) == a

    def test_inverse(self):
        f = PrimeField(13)
        for a in range(1, 13):
            assert f.mul(a, f.inverse(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(FieldError):
            PrimeField(7).inverse(0)

    def test_out_of_range_element_rejected(self):
        f = PrimeField(7)
        with pytest.raises(FieldError):
            f.add(7, 0)
        with pytest.raises(FieldError):
            f.mul(-1, 3)

    def test_pow_negative_exponent(self):
        # Powers go through GF(p)[x] modulo x: a^(p-2) is a's inverse,
        # and negative exponents are refused.
        f = PrimeField(11)
        x = Polynomial.x(f)
        three = Polynomial(f, [3])
        assert three.pow_mod(9, x).to_int() == f.inverse(3)
        with pytest.raises(FieldError):
            three.pow_mod(-1, x)

    def test_element_order_divides_group(self):
        f = PrimeField(31)
        x = Polynomial.x(f)
        for a in range(1, 31):
            order = polynomial_order(Polynomial(f, [a]), x)
            assert 30 % order == 0
            assert Polynomial(f, [a]).pow_mod(order, x).to_int() == 1

    def test_element_order_of_generator(self):
        f = PrimeField(7)
        # 3 is a primitive root mod 7.
        assert polynomial_order(Polynomial(f, [3]), Polynomial.x(f)) == 6

    def test_equality_and_hash(self):
        assert PrimeField(7) == PrimeField(7)
        assert PrimeField(7) != PrimeField(11)
        assert len({PrimeField(7), PrimeField(7), PrimeField(11)}) == 2

    @given(
        st.sampled_from(PRIMES),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    def test_ring_axioms(self, p, a, b, c):
        f = PrimeField(p)
        a, b, c = a % p, b % p, c % p
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
