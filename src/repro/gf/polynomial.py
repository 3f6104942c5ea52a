"""Dense polynomials over GF(p).

Used to build extension fields GF(p^m): irreducible polynomials define the
field, and primitive polynomials give generators whose powers enumerate the
multiplicative group (the sequence the PDDL appendix uses for n = 16).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import FieldError
from repro.gf.prime import PrimeField


class Polynomial:
    """An immutable polynomial with coefficients in GF(p).

    Coefficients are stored little-endian: ``coeffs[i]`` multiplies ``x**i``.
    Trailing zeros are normalized away; the zero polynomial has ``coeffs == ()``.

    >>> f = PrimeField(2)
    >>> p = Polynomial(f, [1, 1, 0, 1])  # 1 + x + x^3
    >>> p.degree
    3
    >>> (p * p).degree
    6
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Sequence[int]):
        self.field = field
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        for c in trimmed:
            if not 0 <= c < field.order:
                raise FieldError(f"coefficient {c} not in GF({field.order})")
        self.coeffs: Tuple[int, ...] = tuple(trimmed)

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def one(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [1])

    @classmethod
    def x(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [0, 1])

    @classmethod
    def from_int(cls, field: PrimeField, value: int) -> "Polynomial":
        """Interpret ``value`` in base ``p`` as a coefficient vector.

        This is the encoding GF(2^m) hardware uses: the integer's bits are the
        polynomial's coefficients.

        >>> Polynomial.from_int(PrimeField(2), 0b1011).coeffs
        (1, 1, 0, 1)
        """
        coeffs = []
        p = field.order
        while value:
            coeffs.append(value % p)
            value //= p
        return cls(field, coeffs)

    def to_int(self) -> int:
        """Inverse of :meth:`from_int`."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.order + c
        return value

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        f = self.field
        longer, shorter = (self.coeffs, other.coeffs)
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for i, c in enumerate(shorter):
            out[i] = f.add(out[i], c)
        return Polynomial(f, out)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        p = self.field.order
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(self.field, out)

    def scale(self, scalar: int) -> "Polynomial":
        f = self.field
        return Polynomial(f, [f.mul(scalar, c) for c in self.coeffs])

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Polynomial division with remainder.

        >>> f = PrimeField(2)
        >>> num = Polynomial(f, [0, 0, 0, 0, 1])       # x^4
        >>> den = Polynomial(f, [1, 1, 1, 1, 1])       # x^4+x^3+x^2+x+1
        >>> q, r = num.divmod(den)
        >>> r.coeffs
        (1, 1, 1, 1)
        """
        self._check_field(divisor)
        if divisor.is_zero():
            raise FieldError("polynomial division by zero")
        f = self.field
        remainder = list(self.coeffs)
        quotient = [0] * max(0, len(remainder) - len(divisor.coeffs) + 1)
        lead_inv = f.inverse(divisor.coeffs[-1])
        dlen = len(divisor.coeffs)
        while len(remainder) >= dlen:
            while remainder and remainder[-1] == 0:
                remainder.pop()
            if len(remainder) < dlen:
                break
            shift = len(remainder) - dlen
            factor = f.mul(remainder[-1], lead_inv)
            quotient[shift] = factor
            for i, c in enumerate(divisor.coeffs):
                remainder[shift + i] = f.sub(remainder[shift + i], f.mul(factor, c))
        return Polynomial(f, quotient), Polynomial(f, remainder)

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[1]

    def pow_mod(self, exponent: int, modulus: "Polynomial") -> "Polynomial":
        """Compute ``self**exponent mod modulus`` by square-and-multiply."""
        if exponent < 0:
            raise FieldError("negative exponents are not supported here")
        result = Polynomial.one(self.field)
        base = self % modulus
        while exponent:
            if exponent & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            exponent >>= 1
        return result

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.scale(self.field.inverse(a.coeffs[-1]))

    def is_irreducible(self) -> bool:
        """Rabin's irreducibility test over GF(p).

        A degree-``m`` polynomial ``f`` is irreducible iff ``x**(p**m) == x
        (mod f)`` and ``gcd(f, x**(p**(m/q)) - x) == 1`` for every prime
        divisor ``q`` of ``m``.

        >>> f = PrimeField(2)
        >>> Polynomial(f, [1, 1, 1, 1, 1]).is_irreducible()  # x^4+x^3+x^2+x+1
        True
        >>> Polynomial(f, [1, 0, 0, 0, 1]).is_irreducible()  # x^4+1 = (x+1)^4
        False
        """
        from repro.gf.prime import factorize

        m = self.degree
        if m <= 0:
            return False
        if m == 1:
            return True
        p = self.field.order
        x = Polynomial.x(self.field)
        for q in factorize(m):
            h = x.pow_mod(p ** (m // q), self) - x
            if self.gcd(h).degree != 0:
                return False
        return x.pow_mod(p ** m, self) == x % self

    def _check_field(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise FieldError("polynomials over different fields")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Polynomial(" + " + ".join(terms) + f" over GF({self.field.order}))"
