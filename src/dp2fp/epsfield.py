"""Rational functions in one formal perturbation parameter over exact rationals.

``EpsRational`` is an element of Q(e) held as a pair of integer polynomials
in the perturbation symbol ``e`` (tuples of ints, index i holding the e**i
coefficient, trailing zeros stripped) in canonical form:

  * num and den are coprime in Z[e]: no common factor of positive degree
    and no common divisor > 1 of all their coefficients, and
  * the lowest-order nonzero coefficient of den is positive.

So structural equality is equality of rational functions, which is what
the confinement engine needs.  ``num`` and ``den`` read as ``EpsPoly``
views with Fraction coefficients, scaled so that den's lowest-order
nonzero coefficient is 1.

Canonical-form degrees are capped by a configurable bound (default 64).
Exceeding it raises ``DegreeOverflowError``: blowup of the perturbation
degree is how a non-confining orbit announces itself, and it must stay
distinguishable from an ordinary pole at e = 0.

Arithmetic runs on ints only, and every gcd goes through ``poly_gcd``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm

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


def _strip(coeffs) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class EpsPoly:
    """Polynomial in the perturbation symbol with Fraction coefficients;
    index i holds the e**i coefficient.  The constructor and view type of
    ``EpsRational``; arithmetic runs on the integer kernel below.

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

# -- the integer kernel: polynomials in Z[e] as stripped tuples of ints ------

_ONE = (1,)

# The prime 2**61 - 1 of the modular coprimality certificate in poly_gcd.
GCD_CHECK_PRIME = (1 << 61) - 1


def _ord(a: tuple) -> int:
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    i = 0
    while not a[i]:
        i += 1
    return i


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _strip([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            out[i:i + n] = [o + x * y for o, y in zip(out[i:i + n], a)]
    # The leading product is nonzero over an integral domain.
    return tuple(out)


def _pow(a: tuple, k: int) -> tuple:
    result = _ONE
    while k:
        if k & 1:
            result = _mul(result, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return result


def _exact_div(a: tuple, b: tuple) -> tuple:
    """a / b in Z[e]; Dp2Error unless b divides a there."""
    db = len(b) - 1
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    lead, low = b[-1], b[:-1]
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + db], lead)
        if r:
            break
        if c:
            quo[i] = c
            rem[i:i + db] = [x - c * y for x, y in zip(rem[i:i + db], low)]
    else:
        if not any(rem[:db]):
            return tuple(quo)
    raise Dp2Error("internal: polynomial division expected to be exact")


def _primitive(a: tuple) -> tuple:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple([c // g for c in a])


def _certified_coprime(a: tuple, b: tuple) -> bool:
    """Sufficient test that a and b are coprime over Q: the Euclidean
    algorithm mod q = GCD_CHECK_PRIME ends in a nonzero constant.  Exact
    when neither leading coefficient vanishes mod q: a common factor over
    Q, taken primitive, divides both in Z[e] (Gauss's lemma), so it keeps
    its degree mod q and divides both reductions.
    """
    q = GCD_CHECK_PRIME
    a = [c % q for c in a]
    b = [c % q for c in b]
    if not a[-1] or not b[-1]:
        return False
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        low = b[:-1]
        rem = a
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i] * inv % q
            if c:
                j = i - db
                rem[j:i] = [(x - c * y) % q for x, y in zip(rem[j:i], low)]
        rem = rem[:db]
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, rem
    return len(b) == 1


def _prs_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of two nonzero polynomials by Collins' primitive PRS:
    pseudo-remainders, each made primitive."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lead = b[-1]
        db = len(b) - 1
        low = b[:-1]
        rem = list(a)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if not c:
                continue
            if c % lead:
                rem[:i] = [lead * x for x in rem[:i]]
            else:
                c //= lead
            j = i - db
            rem[j:i] = [x - c * y for x, y in zip(rem[j:i], low)]
        rem = _strip(rem[:db])
        if not rem:
            return b
        a, b = b, _primitive(rem)
    return _ONE


def poly_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd in Z[e] with a positive leading coefficient, which
    is the gcd over Q up to a scalar; gcd(a, 0) is a made primitive.

    A nonzero constant operand gives 1 at once.  Otherwise the power of e
    in the gcd is read off the operands' orders; what is left is 1 when it
    has a constant operand or ``_certified_coprime`` proves it coprime, and
    runs ``_prs_gcd`` in every other case.
    """
    if len(a) == 1 or len(b) == 1:
        return _ONE
    if not a or not b:
        return _primitive(a or b) if a or b else ()
    i, j = _ord(a), _ord(b)
    a, b = a[i:], b[j:]
    if len(a) == 1 or len(b) == 1 or _certified_coprime(a, b):
        g = _ONE
    else:
        g = _prs_gcd(a, b)
    return (0,) * min(i, j) + g


def _check_degree(degree: int) -> None:
    bound = _degree_bound.get()
    if bound is not None and degree > bound:
        raise DegreeOverflowError(
            f"perturbation degree {degree} exceeds bound {bound}")


def _canonical(num: tuple, den: tuple) -> "EpsRational":
    """EpsRational from num and nonzero den coprime over Q: divides out
    the pair's content, fixes den's sign and applies the degree bound."""
    if not num:
        num, den = (), _ONE
    else:
        g = gcd(*num, *den)
        if den[_ord(den)] < 0:
            g = -g
        if g != 1:
            num = tuple([c // g for c in num])
            den = tuple([c // g for c in den])
    _check_degree(max(len(num), len(den)) - 1)
    out = object.__new__(EpsRational)
    out._num = num
    out._den = den
    return out


def _cleared(num: EpsPoly, den: EpsPoly) -> tuple[tuple, tuple]:
    """Fraction coefficient pair scaled to one integer pair."""
    scale = lcm(*(c.denominator for c in num.coeffs + den.coeffs))
    return (tuple([c.numerator * (scale // c.denominator) for c in num.coeffs]),
            tuple([c.numerator * (scale // c.denominator) for c in den.coeffs]))


def _view(coeffs: tuple, t: int) -> EpsPoly:
    poly = object.__new__(EpsPoly)
    poly.coeffs = tuple([Fraction(c, t) for c in coeffs])
    return poly


class EpsRational:
    """Canonical quotient of two integer polynomials, a field element of Q(e)."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        num = EpsPoly(num)
        den = ONE if den is None else EpsPoly(den)
        if den.is_zero:
            raise DivisionByZeroError("zero denominator in perturbation function")
        num, den = _cleared(num, den)
        if num:
            g = poly_gcd(num, den)
            if len(g) > 1:
                num = _exact_div(num, g)
                den = _exact_div(den, g)
        made = _canonical(num, den)
        self._num, self._den = made._num, made._den

    @classmethod
    def from_const(cls, c) -> "EpsRational":
        return cls._coerce(Fraction(c))

    @classmethod
    def eps(cls) -> "EpsRational":
        return cls(EpsPoly((0, 1)))

    @staticmethod
    def _coerce(other):
        if isinstance(other, EpsRational):
            return other
        if isinstance(other, (int, Fraction)):
            return _canonical((other.numerator,) if other else (),
                              (other.denominator,))
        if isinstance(other, EpsPoly):
            return _canonical(*_cleared(other, ONE))
        return None

    @property
    def num(self) -> EpsPoly:
        return _view(self._num, self._den[_ord(self._den)])

    @property
    def den(self) -> EpsPoly:
        return _view(self._den, self._den[_ord(self._den)])

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return _canonical(tuple([-c for c in self._num]), self._den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._num, self._den, o._num, o._den
        t = poly_gcd(b, d)
        if len(t) == 1:
            return _canonical(_add(_mul(a, d), _mul(c, b)), _mul(b, d))
        b1, d1 = _exact_div(b, t), _exact_div(d, t)
        r = _add(_mul(a, d1), _mul(c, b1))
        g2 = poly_gcd(r, t)
        if len(g2) > 1:
            r = _exact_div(r, g2)
            t = _exact_div(t, g2)
        return _canonical(r, _mul(_mul(b1, d1), t))

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
        a, b, c, d = self._num, self._den, o._num, o._den
        if not a or not c:
            return _canonical((), _ONE)
        g1 = poly_gcd(a, d)
        g2 = poly_gcd(c, b)
        if len(g1) > 1:
            a, d = _exact_div(a, g1), _exact_div(d, g1)
        if len(g2) > 1:
            c, b = _exact_div(c, g2), _exact_div(b, g2)
        return _canonical(_mul(a, c), _mul(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZeroError("division by the zero perturbation function")
        return self * _canonical(o._den, o._num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        """num**k / den**k with no gcd: a power of a pair coprime in Z[e]
        is coprime in Z[e], and den's trailing coefficient stays positive.
        The bound is applied to the result's exact degree first; repeated
        squaring builds no intermediate of higher degree, so a power
        overflows exactly when a chain of products would."""
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        num, den = self._num, self._den
        _check_degree(k * (max(len(num), len(den)) - 1))
        out = object.__new__(EpsRational)
        out._num = _pow(num, k)
        out._den = _pow(den, k)
        return out

    def ord0(self):
        """Order of vanishing at e = 0; negative means a pole, zero gives
        a finite nonzero limit, PLUS_INFINITY is the zero function."""
        if not self._num:
            return PLUS_INFINITY
        return _ord(self._num) - _ord(self._den)

    def eval0(self) -> Fraction:
        """The limit value at e = 0; requires ord0 >= 0."""
        o = self.ord0()
        if o < 0:
            raise PoleAtZeroError(f"pole of order {-o} at e = 0")
        if o:
            return Fraction(0)      # a zero at e = 0, or the zero function
        return Fraction(self._num[_ord(self._num)], self._den[_ord(self._den)])

    def __str__(self):
        if len(self._den) == 1:
            return f"({self.num})"
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"EpsRational({self.num!r}, {self.den!r})"


def ord0(f: EpsRational):
    return f.ord0()


def eval0(f: EpsRational) -> Fraction:
    return f.eval0()
