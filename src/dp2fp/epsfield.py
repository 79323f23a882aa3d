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

Arithmetic runs on ints only, and every gcd goes through ``poly_gcd``,
which returns the gcd with both cofactors, so no division follows it.
A constant operand gives 1, a zero operand gives the other one made
primitive, and the power of e comes from the orders.  The heuristic gcd
GCDHEU computes the rest from the integer gcd of the two polynomials'
values at an integer xi >= 2*min(|a|oo, |b|oo) + 2.  That puts xi/2
above every root of one operand, so a candidate that divides both is
the gcd, and a growing xi always reaches one (``_heuristic_gcd`` has
both proofs).

An int or Fraction operand u/w stays a scalar: N/D + u/w is
(N*w + u*D)/(D*w), (N/D) * (u/w) is (N*u)/(D*w), and so on, with no
polynomial gcd, since a constant brings no common factor of positive
degree; the pair then takes the same canonical-form step as any other.
``dp2_coefficient_sum`` builds the dP-II sum alpha/(1 - x) + beta/(1 + x)
from the int pair of x in the same way: its pair is coprime by
construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (DegreeOverflowError, DivisionByZeroError, Dp2Error,
                     PoleAtZeroError)
from .padic import PLUS_INFINITY, FpProj

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
    raise Dp2Error("polynomial division is not exact in Z[e]")


def _primitive(a: tuple) -> tuple:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple([c // g for c in a])


def _value(a: tuple, xi: int) -> int:
    """a evaluated at the integer xi, by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _heuristic_gcd(a: tuple, b: tuple) -> tuple:
    """(g, a/g, b/g) for nonzero a and b with nonzero constant terms, g
    the primitive gcd: GCDHEU (Char, Geddes and Gonnet, J. Symbolic
    Comput. 7 (1989) 31) with the exactness bound of Liao and Fateman
    (ISSAC 1995).

    At an integer xi, take h = gcd(a(xi), b(xi)), rebuild G from the
    symmetric xi-adic digits of h (each in (-xi/2, xi/2]) and let g be
    its primitive part.  g is accepted when it divides a and b exactly;
    those quotients are the cofactors.  Otherwise xi grows and the loop
    runs again.

    Exactness.  The first xi, 2*min(|a|oo, |b|oo) + 2, has
    xi*|lc f| >= 2*|f|oo + 2*|lc f| for the operand f of smaller norm,
    as |lc f| >= 1, and xi only grows.  So xi/2 exceeds Cauchy's bound
    1 + |f|oo/|lc f| on the roots of f.  An accepted g divides the gcd
    d, say d = g*H.  Then d(xi) divides h = cont(G)*g(xi), so H(xi)
    divides cont(G) <= xi/2.  But deg H >= 1 would give
    |H(xi)| > (xi/2)**deg H >= xi/2, since every root of H is a root of
    f.  So H is a unit and g is the gcd.

    Termination.  h = d(xi)*k, where k = gcd(a'(xi), b'(xi)) for the
    cofactors a', b' divides Res(a', b') != 0.  Once
    xi > 2*|Res(a', b')|*|d|oo, the digits of h are the coefficients of
    k*d, so the loop ends with g = d.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        h = gcd(_value(a, xi), _value(b, xi))
        digits = []
        while h:
            h, c = divmod(h, xi)
            if 2 * c > xi:
                c -= xi
                h += 1
            digits.append(c)
        g = _primitive(tuple(digits))
        if len(g) == 1:
            return _ONE, a, b
        try:
            return g, _exact_div(a, g), _exact_div(b, g)
        except Dp2Error:
            xi = xi * isqrt(isqrt(xi)) * 73794 // 27011


def poly_gcd(a: tuple, b: tuple) -> tuple[tuple, tuple, tuple]:
    """(g, a/g, b/g): g the primitive gcd in Z[e] with a positive leading
    coefficient, which is the gcd over Q up to a scalar, and the two
    cofactors in Z[e].

    In order: a nonzero constant operand gives g = 1; a zero operand
    gives the other one made primitive (gcd(0, 0) is 0, with cofactors
    0); the power of e in g is the lower of the operands' orders;
    ``_heuristic_gcd`` computes the rest.
    """
    if len(a) == 1 or len(b) == 1:
        return _ONE, a, b
    if not a or not b:
        f = a or b
        g = _primitive(f) if f else ()
        # 0/g is 0, and f/g is f's content with f's sign.
        return g, a and (f[-1] // g[-1],), b and (f[-1] // g[-1],)
    i, j = _ord(a), _ord(b)
    k = min(i, j)
    g, u, v = _heuristic_gcd(a[i:], b[j:])
    return (0,) * k + g, (0,) * (i - k) + u, (0,) * (j - k) + v


def _int_vp(c: int, p: int) -> int:
    """p-adic valuation of a nonzero int."""
    v = 0
    while not c % p:
        c //= p
        v += 1
    return v


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


def _scale(a: tuple, k: int) -> tuple:
    """k * a for a nonzero int k."""
    return a if k == 1 else tuple([k * c for c in a])


def _shift(num: tuple, den: tuple, u: int, w: int) -> "EpsRational":
    """num/den + u/w, for a canonical num/den and w > 0."""
    if w != 1:
        num = _scale(num, w)
    if u:
        num = _add(num, _scale(den, u))
    return _canonical(num, _scale(den, w))


def _sum(a: tuple, b: tuple, c: tuple, d: tuple) -> "EpsRational":
    """a/b + c/d for canonical a/b and c/d."""
    t, b1, d1 = poly_gcd(b, d)
    r = _add(_mul(a, d1), _mul(c, b1))
    if len(t) == 1:
        return _canonical(r, _mul(b, d))
    _, r, t = poly_gcd(r, t)
    return _canonical(r, _mul(_mul(b1, d1), t))


def _product(a: tuple, b: tuple, c: tuple, d: tuple) -> "EpsRational":
    """(a/b) * (c/d) for canonical a/b and c/d."""
    if not a or not c:
        return _canonical((), _ONE)
    _, a, d = poly_gcd(a, d)
    _, c, b = poly_gcd(c, b)
    return _canonical(_mul(a, c), _mul(b, d))


def dp2_coefficient_sum(x: "EpsRational", alpha, beta) -> "EpsRational":
    """alpha/(1 - x) + beta/(1 + x), the coefficient part of one dP-II
    step, for int or Fraction alpha and beta, with no polynomial gcd.

    Write x = N/D in canonical form and alpha = A/w, beta = B/w.  The sum
    is D*(A*(D + N) + B*(D - N)) / (w*(D - N)*(D + N)), and that pair is
    already coprime over Q.  gcd(N, D) = 1 makes D, D - N and D + N
    pairwise coprime, since a common factor of two of them divides N and
    D.  The bracket is 2AN mod D - N and -2BN mod D + N, so when A and B
    are nonzero it is coprime to both.  When one of them is zero, one
    term is left, A*D/(w*(D - N)) or B*D/(w*(D + N)), which is coprime as
    it stands.  So one ``_canonical`` gives the canonical
    form, and the degree bound fires on the same pair as the operator
    formula's sum, whose other intermediates 1 +- x and alpha/(1 -+ x)
    have the degree of x.  x = +1 or -1 exactly raises
    ``DivisionByZeroError`` whatever alpha and beta are.
    """
    num, den = x._num, x._den
    minus = _add(den, tuple([-c for c in num]))      # D - N
    plus = _add(den, num)                            # D + N
    if not minus or not plus:
        raise DivisionByZeroError("division by the zero perturbation function")
    w = lcm(alpha.denominator, beta.denominator)
    A = alpha.numerator * (w // alpha.denominator)
    B = beta.numerator * (w // beta.denominator)
    if not A and not B:
        # 0 / (1 -+ x) is 0, but x is still held to the bound.
        _check_degree(max(len(num), len(den)) - 1)
        return _canonical((), _ONE)
    if not B:
        return _canonical(_scale(den, A), _scale(minus, w))
    if not A:
        return _canonical(_scale(den, B), _scale(plus, w))
    bracket = _add(_scale(plus, A), _scale(minus, B))
    return _canonical(_mul(den, bracket), _scale(_mul(minus, plus), w))


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
            _, num, den = poly_gcd(num, den)
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
        if isinstance(other, EpsRational):
            return _sum(self._num, self._den, other._num, other._den)
        if isinstance(other, (int, Fraction)):
            return _shift(self._num, self._den,
                          other.numerator, other.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, EpsRational):
            return _sum(self._num, self._den,
                        tuple([-c for c in other._num]), other._den)
        if isinstance(other, (int, Fraction)):
            return _shift(self._num, self._den,
                          -other.numerator, other.denominator)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _shift(tuple([-c for c in self._num]), self._den,
                          other.numerator, other.denominator)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, EpsRational):
            return _product(self._num, self._den, other._num, other._den)
        if isinstance(other, (int, Fraction)):
            u = other.numerator
            if not u:
                return _canonical((), _ONE)
            return _canonical(_scale(self._num, u),
                              _scale(self._den, other.denominator))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, EpsRational):
            if not other._num:
                raise DivisionByZeroError(
                    "division by the zero perturbation function")
            inv = _canonical(other._den, other._num)
            return _product(self._num, self._den, inv._num, inv._den)
        if isinstance(other, (int, Fraction)):
            u, w = other.numerator, other.denominator
            if not u:
                raise DivisionByZeroError(
                    "division by the zero perturbation function")
            return _canonical(_scale(self._num, w), _scale(self._den, u))
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num, den = self._num, self._den
        if not num:
            raise DivisionByZeroError(
                "division by the zero perturbation function")
        u, w = other.numerator, other.denominator
        if not u:
            # 0 / f is 0, but f is still held to the bound, as 1/f is.
            _check_degree(max(len(num), len(den)) - 1)
            return _canonical((), _ONE)
        return _canonical(_scale(den, u), _scale(num, w))

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

    def proj0(self, p: int) -> FpProj:
        """Projective reduction mod p of the value at e = 0: infinity for
        a pole, else the reduction of the limit, read off the lowest-order
        coefficients of the int pair."""
        num, den = self._num, self._den
        if not num:
            return FpProj(p, 0)
        i, j = _ord(num), _ord(den)
        if i != j:
            return FpProj(p, 0) if i > j else FpProj.infinity(p)
        n, d = num[i], den[j]
        g = gcd(n, d)
        n, d = n // g, d // g
        if not d % p:
            return FpProj.infinity(p)
        return FpProj(p, n * pow(d, -1, p))

    def reduces_uniformly(self, p: int) -> bool:
        """Certificate that the value at every e in pZ_p where it is
        defined reduces mod p to one point, [N_0 p**-v : D_0 p**-v].

        Here num = sum N_i e**i, den = sum D_i e**i and
        v = min(vp(N_0), vp(D_0)), finite since e divides at most one of
        them.  The certificate holds when vp(N_i) + i > v and
        vp(D_i) + i > v for every i >= 1.  Then N(e) = N_0 and D(e) = D_0
        mod p**(v + 1), and one of N_0, D_0 has valuation exactly v.
        """
        num, den = self._num, self._den
        v = min(_int_vp(c, p) for c in (num[0] if num else 0, den[0]) if c)
        return all(_int_vp(c, p) + i > v
                   for poly in (num, den)
                   for i, c in enumerate(poly) if i and c)

    def __str__(self):
        if len(self._den) == 1:
            return f"({self.num})"
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"EpsRational({self.num!r}, {self.den!r})"

