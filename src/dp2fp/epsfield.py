"""Rational functions in one formal perturbation parameter over exact rationals.

``EpsPoly`` is a dense univariate polynomial in the perturbation symbol
``e`` with Fraction coefficients; ``EpsRational`` is a quotient of two such
polynomials kept in canonical form:

  * num and den share no polynomial factor (gcd-reduced), and
  * the lowest-order nonzero coefficient of den is 1.

That normalization makes structural equality agree with equality of the
underlying rational functions, which is what the confinement engine needs.

Canonical-form degrees are capped by a configurable bound (default 64).
Exceeding it raises ``DegreeOverflowError``: blowup of the perturbation
degree is how a non-confining orbit announces itself, and it must stay
distinguishable from an ordinary pole at e = 0.

Internally, polynomials are built by ``_poly`` from tuples of Fractions that
are already stripped, and quotients by ``_canonical`` from coprime pairs, so
an arithmetic result is neither re-wrapped coefficient by coefficient nor
reduced by a gcd whose value is known in advance (see ``poly_gcd`` and
``EpsRational.__pow__``).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import (DegreeOverflowError, DivisionByZeroError, Dp2Error,
                     PoleAtZeroError)
from .padic import PLUS_INFINITY

DEFAULT_DEGREE_BOUND = 64

_degree_bound: ContextVar[int | None] = ContextVar("eps_degree_bound",
                                                   default=DEFAULT_DEGREE_BOUND)


@contextmanager
def degree_limit(bound: int | None):
    """Temporarily override the canonical-form degree bound (None = off)."""
    token = _degree_bound.set(bound)
    try:
        yield
    finally:
        _degree_bound.reset(token)


_FRACTION_ZERO = Fraction(0)


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _poly(coeffs: tuple) -> "EpsPoly":
    """EpsPoly over a tuple of Fractions that is already stripped."""
    poly = object.__new__(EpsPoly)
    poly.coeffs = coeffs
    return poly


def _as_poly(value) -> "EpsPoly":
    return value if isinstance(value, EpsPoly) else EpsPoly(value)


class EpsPoly:
    """Polynomial in the perturbation symbol; index i holds the e**i coefficient.

    Trailing zeros are stripped, so the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, EpsPoly):
            self.coeffs = coeffs.coeffs
            return
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        self.coeffs = _strip([Fraction(c) for c in coeffs])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial conventionally at -1."""
        return len(self.coeffs) - 1

    def ord(self):
        """Index of the lowest nonzero coefficient; PLUS_INFINITY for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return PLUS_INFINITY

    def trailing(self) -> Fraction:
        for c in self.coeffs:
            if c:
                return c
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = EpsPoly(other)
        if not isinstance(other, EpsPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return _poly(tuple([-c for c in self.coeffs]))

    def __add__(self, other):
        a, b = self.coeffs, _as_poly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(_strip(out))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        a, b = self.coeffs, _as_poly(other).coeffs
        if not a or not b:
            return ZERO
        out = [_FRACTION_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        # The leading product is nonzero over a field: nothing to strip.
        return _poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c: Fraction) -> "EpsPoly":
        if not c:
            return ZERO
        return _poly(tuple([a * c for a in self.coeffs]))

    def divmod(self, other: "EpsPoly"):
        other = _as_poly(other)
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        b = other.coeffs
        rem = list(self.coeffs)
        db = len(b) - 1
        dq = len(rem) - 1 - db
        if dq < 0:
            return ZERO, self
        quo = [_FRACTION_ZERO] * (dq + 1)
        lead = b[-1]
        for i in range(dq, -1, -1):
            c = rem[i + db] / lead
            if c:
                quo[i] = c
                for j in range(db):
                    rem[i + j] -= c * b[j]
        # rem[db:] is zero by construction; quo's top entry is nonzero.
        return _poly(tuple(quo)), _poly(_strip(rem[:db]))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "EpsPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.coeffs[-1])

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*e")
            else:
                parts.append(f"{c}*e^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"EpsPoly({list(self.coeffs)!r})"


ZERO = EpsPoly()
ONE = EpsPoly(1)
EPS_POLY = EpsPoly((0, 1))

# The prime 2**61 - 1 of the modular coprimality certificate in poly_gcd.
GCD_CHECK_PRIME = (1 << 61) - 1


def _residues(coeffs):
    """Coefficients mod GCD_CHECK_PRIME, or None where a denominator
    vanishes mod it."""
    q = GCD_CHECK_PRIME
    out = []
    for c in coeffs:
        d = c.denominator
        if d == 1:
            out.append(c.numerator % q)
        elif d % q:
            out.append(c.numerator * pow(d, -1, q) % q)
        else:
            return None
    return out


def _certified_coprime(a: tuple, b: tuple) -> bool:
    """Sufficient test that a and b are coprime over Q: the Euclidean
    algorithm mod q = GCD_CHECK_PRIME ends in a nonzero constant.

    Exact: if every coefficient lies in Z_(q) and both leading coefficients
    are units there, a common factor g over Q can be taken primitive in
    Z_(q)[e] (Gauss's lemma), so g mod q keeps its degree and divides both
    reductions.  A constant gcd mod q therefore rules out any such g.
    """
    q = GCD_CHECK_PRIME
    a, b = _residues(a), _residues(b)
    if a is None or b is None or not a[-1] or not b[-1]:
        return False
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        rem = list(a)
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i] * inv % q
            if c:
                for j in range(db):
                    rem[i - db + j] = (rem[i - db + j] - c * b[j]) % q
        rem = rem[:db]
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, rem
    return len(b) == 1


def poly_gcd(a: EpsPoly, b: EpsPoly) -> EpsPoly:
    """Monic gcd; the Euclidean algorithm over Q unless the result is known.

    Two cases are decided without it: a nonzero constant operand gives 1,
    and so does a pair that ``_certified_coprime`` proves coprime.  The
    loop makes remainders monic each round to keep coefficient growth in
    check; any exact method would do, the contract is canonical equality.
    """
    a, b = _as_poly(a), _as_poly(b)
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return ONE
    if a.coeffs and b.coeffs and _certified_coprime(a.coeffs, b.coeffs):
        return ONE
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def _exact_div(a: EpsPoly, b: EpsPoly) -> EpsPoly:
    q, r = a.divmod(b)
    if not r.is_zero:
        raise Dp2Error("internal: polynomial division expected to be exact")
    return q


def _check_degree(degree: int) -> None:
    bound = _degree_bound.get()
    if bound is not None and degree > bound:
        raise DegreeOverflowError(
            f"perturbation degree {degree} exceeds bound {bound}")


def _canonical(num: EpsPoly, den: EpsPoly) -> "EpsRational":
    """EpsRational from coprime num and nonzero den: normalizes den's
    trailing coefficient to 1 and applies the degree bound."""
    if num.is_zero:
        num, den = ZERO, ONE
    else:
        t = den.trailing()
        if t != 1:
            s = 1 / t
            num, den = num.scale(s), den.scale(s)
    _check_degree(max(len(num.coeffs), len(den.coeffs)) - 1)
    out = object.__new__(EpsRational)
    out.num = num
    out.den = den
    return out


class EpsRational:
    """Canonical quotient of two EpsPoly, a field element of Q(e)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = EpsPoly(num)
        den = ONE if den is None else EpsPoly(den)
        if den.is_zero:
            raise DivisionByZeroError("zero denominator in perturbation function")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = _exact_div(num, g)
                den = _exact_div(den, g)
        made = _canonical(num, den)
        self.num = made.num
        self.den = made.den

    @classmethod
    def from_const(cls, c) -> "EpsRational":
        return cls(EpsPoly(Fraction(c)))

    @classmethod
    def eps(cls) -> "EpsRational":
        return cls(EPS_POLY)

    @staticmethod
    def _coerce(other):
        if isinstance(other, EpsRational):
            return other
        if isinstance(other, (int, Fraction, EpsPoly)):
            return _canonical(_as_poly(other), ONE)
        return None

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return _canonical(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        t = poly_gcd(b, d)
        if t.degree <= 0:
            return _canonical(a * d + c * b, b * d)
        b1, d1 = _exact_div(b, t), _exact_div(d, t)
        r = a * d1 + c * b1
        g2 = poly_gcd(r, t)
        if g2.degree > 0:
            r = _exact_div(r, g2)
            t = _exact_div(t, g2)
        return _canonical(r, b1 * d1 * t)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return _canonical(ZERO, ONE)
        a, b, c, d = self.num, self.den, o.num, o.den
        g1 = poly_gcd(a, d)
        g2 = poly_gcd(c, b)
        if g1.degree > 0:
            a, d = _exact_div(a, g1), _exact_div(d, g1)
        if g2.degree > 0:
            c, b = _exact_div(c, g2), _exact_div(b, g2)
        return _canonical(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZeroError("division by the zero perturbation function")
        return self * _canonical(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        """num**k / den**k with no gcd: a power of a reduced quotient is
        reduced, and den's trailing coefficient stays 1.

        The bound is applied to the result's exact degree before anything
        is multiplied out.  Repeated squaring builds no intermediate of
        higher degree, so a power overflows exactly when a chain of
        products would.
        """
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        num, den = self.num, self.den
        _check_degree(k * max(num.degree, den.degree))
        return _canonical(num ** k, den ** k)

    def ord0(self):
        """Order of vanishing at e = 0; negative means a pole, zero gives
        a finite nonzero limit, PLUS_INFINITY is the zero function."""
        if self.is_zero:
            return PLUS_INFINITY
        return self.num.ord() - self.den.ord()

    def eval0(self) -> Fraction:
        """The limit value at e = 0; requires ord0 >= 0."""
        o = self.ord0()
        if o is PLUS_INFINITY:
            return Fraction(0)
        if o < 0:
            raise PoleAtZeroError(f"pole of order {-o} at e = 0")
        if o > 0:
            return Fraction(0)
        return self.num.trailing() / self.den.trailing()

    def __str__(self):
        if self.den == ONE:
            return f"({self.num})"
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"EpsRational({self.num!r}, {self.den!r})"


def ord0(f: EpsRational):
    return f.ord0()


def eval0(f: EpsRational) -> Fraction:
    return f.eval0()
