"""Exact rationals with p-adic valuations, and reduction onto F_p and P1(F_p).

Rationals are plain ``fractions.Fraction`` values: the stdlib type already
keeps the canonical form this package relies on (positive denominator,
gcd-reduced, equality by cross-multiplication).  This module adds the p-adic
layer: valuations, norms, residue-field elements, and the projective
reduction that sends negative-valuation rationals to the point at infinity.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionByZeroError,
    InvalidPrimeError,
    ModulusMismatchError,
    NegativeValuationError,
    ParseError,
)

#: Valuation of zero.  Compares correctly against any integer valuation.
PLUS_INFINITY = math.inf

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


#: Miller-Rabin bases that decide primality for every n < 2**64; the
#: least composite passing all twelve is 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality for odd 3 <= p < 2**64 (2 is
    rejected by design).  Raises InvalidPrimeError for p >= 2**64, where
    the twelve bases no longer decide."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    if p >= 2**64:
        raise InvalidPrimeError(f"modulus must be below 2**64, got {p!r}")
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise InvalidPrimeError(f"modulus must be an odd prime >= 3, got {p!r}")
    return p


def parse_rational(text: str) -> Fraction:
    """Parse ``"-3/7"``, ``"4"``, ``"0"`` (optional sign, base 10)."""
    if not _RATIONAL_RE.match(text.strip()):
        raise ParseError(f"not a rational literal: {text!r}", 1, 1,
                         expected=("SIGN? DIGITS", "DIGITS '/' DIGITS"))
    num, sep, den = text.strip().partition("/")
    if sep and int(den) == 0:
        raise DivisionByZeroError(f"zero denominator in rational literal {text!r}")
    return Fraction(int(num), int(den)) if sep else Fraction(int(num))


def vp(x, p: int):
    """p-adic valuation of a rational.

    Returns ``PLUS_INFINITY`` for 0, otherwise the exact exponent of p in
    the canonical factorization (negative when p divides the denominator).
    """
    check_odd_prime(p)
    x = Fraction(x)
    if x == 0:
        return PLUS_INFINITY
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    if v:
        return v
    while den % p == 0:
        den //= p
        v -= 1
    return v


def pnorm(x, p: int) -> Fraction:
    """p-adic norm p**(-vp(x)), with |0|_p = 0."""
    v = vp(x, p)
    if v is PLUS_INFINITY:
        return Fraction(0)
    if v >= 0:
        return Fraction(1, p**v)
    return Fraction(p ** (-v))


@dataclass(frozen=True)
class FpElem:
    """A residue in F_p for an odd prime p.

    The residue is normalized into {0, ..., p-1} on construction, so
    ``FpElem(-8, 3)`` is the element 1 mod 3.  Arithmetic coerces ints and
    p-integral Fractions on either side; mixing two different moduli raises
    ``ModulusMismatchError`` rather than silently coercing.
    """

    residue: int
    p: int

    def __post_init__(self):
        check_odd_prime(self.p)
        object.__setattr__(self, "residue", self.residue % self.p)

    def _coerce(self, other):
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ModulusMismatchError(
                    f"cannot mix residues mod {self.p} and mod {other.p}")
            return other
        if isinstance(other, int):
            return FpElem(other, self.p)
        if isinstance(other, Fraction):
            return reduce_mod(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.residue + o.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.residue - o.residue, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(o.residue - self.residue, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElem(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return FpElem(-self.residue, self.p)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return FpElem(pow(self.residue, k, self.p), self.p)

    def inverse(self) -> "FpElem":
        if self.residue == 0:
            raise DivisionByZeroError(f"0 has no inverse mod {self.p}")
        return FpElem(pow(self.residue, -1, self.p), self.p)

    def __bool__(self):
        return self.residue != 0

    def __int__(self):
        return self.residue

    def __str__(self):
        return str(self.residue)


@dataclass(frozen=True)
class FpProj:
    """A point of the projective line over F_p: a residue or infinity.

    ``residue is None`` encodes the point at infinity; it prints as the
    three-character token ``inf`` and compares equal only to infinity over
    the same prime.
    """

    p: int
    residue: int | None

    def __post_init__(self):
        check_odd_prime(self.p)
        if self.residue is not None:
            object.__setattr__(self, "residue", self.residue % self.p)

    @classmethod
    def infinity(cls, p: int) -> "FpProj":
        return cls(p, None)

    @property
    def is_infinity(self) -> bool:
        return self.residue is None

    def __str__(self):
        return "inf" if self.residue is None else str(self.residue)


def reduce_mod(x, p: int) -> FpElem:
    """Reduce a p-integral rational onto F_p.

    Raises ``NegativeValuationError`` when vp(x) < 0, i.e. x is not a
    p-adic integer and has no residue.
    """
    check_odd_prime(p)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NegativeValuationError(
            f"{x} has negative valuation at p={p}; no residue exists")
    return FpElem(x.numerator * pow(x.denominator, -1, p), p)


def reduce_proj(x, p: int) -> FpProj:
    """Projective reduction: finite residue when vp >= 0, else infinity."""
    check_odd_prime(p)
    x = Fraction(x)
    if x.denominator % p == 0:
        return FpProj.infinity(p)
    return FpProj(p, x.numerator * pow(x.denominator, -1, p))
