"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields GF(p).

A rational scalar is a Python ``int`` when it is integral and a
lowest-terms ``Fraction`` with denominator > 1 otherwise; over GF(p) it is
the canonical representative ``0..p-1``, an ``int``.  Python ints are exact
rationals: int arithmetic stays int, mixed int/Fraction arithmetic is exact,
and an integral Fraction compares and hashes equal to its int, so matrix and
subspace equality never depend on which of the two a value is.  The
structure constants of every catalogue instance are integers, so most
rational arithmetic never builds a Fraction.  Bijectivity questions
downstream are decided by exact rank computations, so no floating point
appears anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

RATIONAL = "rational"
PRIME = "prime"


# Miller-Rabin with the first 13 primes as bases is exact below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# Rational coefficients in documents: an integer or a fraction of integers.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational(q: Fraction) -> Scalar:
    """The canonical rational scalar equal to q: its numerator when integral."""
    return q.numerator if q.denominator == 1 else q


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses moduli it cannot decide exactly."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"field modulus must be below {_MR_LIMIT}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field of a computation.

    All scalars inside one computation share one FieldSpec; mixing fields is
    rejected at the matrix level with FieldMismatch.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL:
            if self.p is not None:
                raise ValueError("rational field carries no modulus")
        elif self.kind == PRIME:
            if type(self.p) is not int:  # 7.0 would pass the trial division
                raise ValueError(f"field modulus must be an integer, got {self.p!r}")
            if not _is_prime(self.p):
                raise ValueError(f"field modulus must be prime, got {self.p!r}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == PRIME

    # Both kinds share the int zero and one: small ints are single objects,
    # so equal entries compare by identity alone.
    zero = 0
    one = 1

    def coerce(self, value) -> Scalar:
        """Bring an int/Fraction/str into canonical form for this field."""
        if self.kind == PRIME:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    return self.mul(value.numerator % self.p, self.invert(value.denominator % self.p))
                value = value.numerator
            return int(value) % self.p
        if type(value) is int:
            return value
        return _rational(value if type(value) is Fraction else Fraction(value))

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.kind == PRIME else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.kind == PRIME else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.kind == PRIME else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.kind == PRIME else -a

    def invert(self, a: Scalar) -> Scalar:
        if self.kind == PRIME:
            a %= self.p
            if a == 0:
                raise ZeroDivisionError("inverse of zero in prime field")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return a if a == 1 or a == -1 else _rational(1 / Fraction(a))

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.invert(b))

    def parse(self, raw) -> Scalar:
        """Parse a document coefficient. Raises ValueError on malformed input."""
        if self.kind == PRIME:
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise ValueError(f"prime-field coefficient must be an integer, got {raw!r}")
            return raw % self.p
        if isinstance(raw, bool):
            raise ValueError(f"rational coefficient must be a string or integer, got {raw!r}")
        if isinstance(raw, int):
            return raw
        if isinstance(raw, str):
            if not _RATIONAL.fullmatch(raw):
                raise ValueError(f"malformed rational coefficient {raw!r}: expected an integer or n/d")
            try:
                return _rational(Fraction(raw)) if "/" in raw else int(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"malformed rational coefficient {raw!r}: {exc}") from None
        raise ValueError(f"rational coefficient must be a string or integer, got {raw!r}")

    def format(self, a: Scalar):
        """Canonical JSON value: lowest-terms string over Q, int 0..p-1 over GF(p)."""
        if self.kind == PRIME:
            return int(a) % self.p
        return str(a)


QQ = FieldSpec(RATIONAL)


def GF(p: int) -> FieldSpec:
    return FieldSpec(PRIME, p)
