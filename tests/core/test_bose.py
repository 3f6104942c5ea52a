"""Tests for the Bose construction."""

import hashlib

import pytest

from repro.core.bose import bose_base_permutation
from repro.core.development import (
    DigitDevelopment,
    ModularDevelopment,
    XorDevelopment,
    development_for,
)
from repro.designs.difference import is_difference_family
from repro.errors import ConfigurationError
from repro.gf.prime import factorize, is_prime

#: The paper appendix's GF(16) modulus x^4 + x^3 + x^2 + x + 1.
PAPER_GF16_MODULUS = 0b11111

#: sha256 of :func:`permutation_lines` over :func:`bose_configurations`.
BOSE_DIGEST = "cb80c5b89561e5f0e6e082b8d4b3fa4dda85d5b655b4b96837fca1526adb844a"


def bose_configurations():
    """``(g, k)`` of every prime power ``n = g*k + 1`` below 200, k >= 2."""
    return [
        ((n - 1) // k, k)
        for n in range(3, 200)
        if len(factorize(n)) == 1
        for k in range(2, n)
        if (n - 1) % k == 0
    ]


def permutation_lines(build):
    """One ``"g k values..."`` line per configuration."""
    return "".join(
        f"{g} {k} {' '.join(map(str, build(g, k).values))}\n"
        for g, k in bose_configurations()
    )


class TestPrimeConstruction:
    def test_paper_seven_disk_example(self):
        perm = bose_base_permutation(2, 3, omega=3)
        assert perm.values == (0, 1, 2, 4, 3, 6, 5)

    @pytest.mark.parametrize(
        "g,k",
        [(1, 4), (2, 3), (3, 4), (2, 5), (6, 5), (4, 7), (10, 6), (5, 12)],
    )
    def test_always_satisfactory(self, g, k):
        perm = bose_base_permutation(g, k)
        assert perm.is_satisfactory()

    def test_blocks_form_difference_family(self):
        # The appendix's equivalence: the permutation's groups are a
        # difference family in Z_n.
        perm = bose_base_permutation(3, 4)  # n = 13
        blocks = [
            [perm.values[c] for c in perm.group_columns(i)]
            for i in range(perm.g)
        ]
        assert is_difference_family(blocks, 13, lam=perm.k - 1)

    def test_rejects_composite_n(self):
        with pytest.raises(ConfigurationError):
            bose_base_permutation(3, 3)  # n = 10

    def test_rejects_nonprimitive_omega(self):
        with pytest.raises(ConfigurationError):
            bose_base_permutation(2, 3, omega=2)  # 2 has order 3 mod 7
        for omega in (0, 7, 10, -4):  # 0, and residues outside 0..6
            with pytest.raises(ConfigurationError):
                bose_base_permutation(2, 3, omega=omega)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            bose_base_permutation(0, 3)
        with pytest.raises(ConfigurationError):
            bose_base_permutation(2, 1)


class TestGF2Construction:
    def test_paper_gf16_example(self):
        perm = bose_base_permutation(3, 5, modulus=PAPER_GF16_MODULUS)
        assert perm.values == (
            0, 1, 15, 8, 4, 2, 3, 14, 7, 12, 6, 5, 13, 9, 11, 10,
        )
        # x + 1 is the modulus's first primitive element.
        assert bose_base_permutation(
            3, 5, omega=0b11, modulus=PAPER_GF16_MODULUS
        ) == perm

    def test_satisfactory_under_xor(self):
        perm = bose_base_permutation(3, 5, modulus=PAPER_GF16_MODULUS)
        assert perm.is_satisfactory(XorDevelopment(16))

    def test_gf8(self):
        perm = bose_base_permutation(1, 7)  # n = 8
        assert perm.is_satisfactory(XorDevelopment(8))

    def test_gf32(self):
        perm = bose_base_permutation(1, 31)  # n = 32
        assert perm.is_satisfactory(XorDevelopment(32))

    def test_rejects_non_power_of_two(self):
        # XOR is GF(2^m)'s addition only: n = 7 develops modulo 7.
        with pytest.raises(ConfigurationError):
            XorDevelopment(7)
        assert development_for(7) == ModularDevelopment(7)
        assert bose_base_permutation(2, 3).is_satisfactory(
            development_for(7)
        )

    def test_rejects_field_mismatch(self):
        # x^3 + x + 1 defines GF(8), not GF(16); x^4 + 1 is reducible; x
        # (0b10) has order 5 for the paper modulus; 16 is outside GF(16).
        for modulus in (0b1011, 0b10001):
            with pytest.raises(ConfigurationError):
                bose_base_permutation(3, 5, modulus=modulus)
        for omega in (0b10, 16):
            with pytest.raises(ConfigurationError):
                bose_base_permutation(
                    3, 5, omega=omega, modulus=PAPER_GF16_MODULUS
                )


class TestSatisfactoryPermutation:
    def test_prime_route(self):
        perm = bose_base_permutation(3, 4)
        assert perm.is_satisfactory()

    def test_power_of_two_route(self):
        perm = bose_base_permutation(3, 5)
        assert perm.is_satisfactory(XorDevelopment(16))

    def test_composite_raises(self):
        with pytest.raises(ConfigurationError):
            bose_base_permutation(3, 3)  # n = 10 needs a group


class TestGFPrimePowerConstruction:
    """The Bose construction over odd prime powers GF(p^m)."""

    @pytest.mark.parametrize(
        "g,k,p,m",
        [(2, 4, 3, 2), (4, 6, 5, 2), (2, 13, 3, 3), (6, 8, 7, 2)],
    )
    def test_satisfactory_under_digit_development(self, g, k, p, m):
        perm = bose_base_permutation(g, k)
        assert perm.is_satisfactory(DigitDevelopment(p, m))

    def test_not_satisfactory_under_modular(self):
        perm = bose_base_permutation(2, 4)
        # Development must be the field's addition, not integer addition.
        assert not perm.is_satisfactory()

    def test_shape_validation(self):
        # n = 9 = 3^2 needs a degree-2 modulus over GF(3): x^3 + 2x + 1
        # (34) has degree 3, x + 1 (4) degree 1, x^2 + 2x + 1 (16) is
        # (x + 1)^2.
        for modulus in (34, 4, 16, -1):
            with pytest.raises(ConfigurationError):
                bose_base_permutation(2, 4, modulus=modulus)

    def test_satisfactory_permutation_routes_prime_powers(self):
        perm = bose_base_permutation(2, 4)  # n = 9
        assert perm.is_satisfactory(DigitDevelopment(3, 2))

    def test_pddl_for_builds_gf9_layout(self):
        from repro.core.layout import pddl_for
        from repro.core.reconstruction import reconstruction_deviation

        layout = pddl_for(2, 4)
        layout.validate()
        assert isinstance(layout.dev, DigitDevelopment)
        assert reconstruction_deviation(layout) == 0


class TestPins:
    def test_configurations(self):
        sizes = [g * k + 1 for g, k in bose_configurations()]
        assert len(sizes) == 386
        assert sum(is_prime(n) for n in sizes) == 308
        assert sum(n & (n - 1) == 0 for n in sizes) == 12
        assert len(sizes) - 308 - 12 == 66

    def test_every_prime_power_permutation(self):
        lines = permutation_lines(bose_base_permutation)
        assert hashlib.sha256(lines.encode()).hexdigest() == BOSE_DIGEST
