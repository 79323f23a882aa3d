"""Perturbation polynomials and their quotient field."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dp2fp import EpsPoly, EpsRational, degree_limit
from dp2fp import epsfield
from dp2fp.epsfield import ONE, ZERO, _exact_div, poly_gcd
from dp2fp.errors import (DegreeOverflowError, DivisionByZeroError, Dp2Error,
                          PoleAtZeroError)
from dp2fp.padic import PLUS_INFINITY, FpProj, reduce_proj, vp

E = EpsRational.eps()


def const(c):
    return EpsRational.from_const(Fraction(c))


def test_arith_examples():
    assert (const(1) + E) - const(1) == E
    assert E * (const(1) / E) == const(1)
    assert (const(2) + E) / (const(2) + E) == const(1)


def test_ord0_examples():
    assert (E * E / (const(2) + E)).ord0() == 2
    assert ((const(1) + E) / E).ord0() == -1
    assert const(0).ord0() == PLUS_INFINITY


def test_eval0_examples():
    assert ((2 * E + 3 * E * E) / E).eval0() == Fraction(2)
    assert ((const(1) + E) / (const(1) - E)).eval0() == Fraction(1)
    with pytest.raises(PoleAtZeroError):
        (const(1) / E).eval0()


def test_division_by_zero_function():
    with pytest.raises(DivisionByZeroError):
        const(1) / const(0)
    with pytest.raises(DivisionByZeroError):
        EpsRational(ONE, ZERO)


def test_canonical_form_is_structural():
    f = EpsRational(EpsPoly((0, 2, 2)), EpsPoly((2, 2)))   # 2e(1+e) / 2(1+e)
    assert f == E
    g = EpsRational(EpsPoly((1, 1)), EpsPoly((2,)))
    assert g.den == ONE or g.den.trailing() == 1
    # den's lowest nonzero coefficient is normalized to 1
    h = EpsRational(EpsPoly((1,)), EpsPoly((0, 3)))
    assert h.den.coeffs[h.den.ord()] == 1


def test_exact_div_and_gcd():
    a = (2, 3, 1)       # (1+e)(2+e)
    b = (1, 1)
    assert _exact_div(a, b) == (2, 1)
    assert poly_gcd(a, b) == ((1, 1), (2, 1), (1,))
    assert poly_gcd(b, ()) == ((1, 1), (1,), ())
    assert poly_gcd((), (-2, -2)) == ((1, 1), (), (-2,))


def test_degree_bound_raises():
    with degree_limit(4):
        f = E
        with pytest.raises(DegreeOverflowError):
            for _ in range(6):
                f = f * E
    # default bound is generous enough for plain use
    g = E
    for _ in range(30):
        g = g * E
    assert g.ord0() == 31


def test_pow():
    assert E ** 0 == const(1)
    assert E ** 3 == E * E * E
    assert (const(2) + E) ** 2 == (const(2) + E) * (const(2) + E)


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def eps_rationals():
    polys = st.lists(small_fracs, min_size=1, max_size=4).map(EpsPoly)
    return st.tuples(polys, polys.filter(lambda q: not q.is_zero)).map(
        lambda t: EpsRational(t[0], t[1]))


@settings(max_examples=250, deadline=None)
@given(f=eps_rationals(), g=eps_rationals())
def test_ord0_additive_on_products(f, g):
    if f.is_zero or g.is_zero:
        return
    assert (f * g).ord0() == f.ord0() + g.ord0()


@settings(max_examples=250, deadline=None)
@given(f=eps_rationals(), g=eps_rationals())
def test_ord0_superadditive_on_sums(f, g):
    s = f + g
    if f.is_zero or g.is_zero or s.is_zero:
        return
    assert s.ord0() >= min(f.ord0(), g.ord0())


@settings(max_examples=250, deadline=None)
@given(f=eps_rationals(), g=eps_rationals())
def test_eval0_is_a_ring_homomorphism(f, g):
    if f.ord0() < 0 or g.ord0() < 0:
        return
    assert (f + g).eval0() == f.eval0() + g.eval0()
    assert (f * g).eval0() == f.eval0() * g.eval0()


@settings(max_examples=150, deadline=None)
@given(c=small_fracs)
def test_constant_round_trip(c):
    assert const(c).eval0() == c


@settings(max_examples=250, deadline=None)
@given(f=eps_rationals(), g=eps_rationals())
def test_field_axioms_spot_checks(f, g):
    assert f + g == g + f
    assert f * g == g * f
    if not g.is_zero:
        assert (f / g) * g == f


@settings(max_examples=250, deadline=None)
@given(f=eps_rationals())
def test_canonical_gcd_one(f):
    num, den = f._num, f._den
    assert poly_gcd(num, den) == ((1,), num, den)
    assert gcd(*num, *den) == 1                   # content 1
    assert next(c for c in den if c) > 0          # den's trailing sign


# -- the integer kernel against Fraction references over Q -----------------

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def ref_divmod(a, b):
    """Long division over Q: quotient and remainder coefficient lists."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quo) - 1, -1, -1):
        c = quo[shift] = rem[shift + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
    return _trim(quo), _trim(rem[:len(b) - 1])


def reference_gcd(a, b):
    """Monic gcd of two coefficient lists by the plain Euclidean algorithm
    over Q, with no shortcut; the oracle for poly_gcd."""
    a = _trim(Fraction(c) for c in a)
    b = _trim(Fraction(c) for c in b)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * y
    return out


def ints(coeffs):
    """Fraction coefficients times their common denominator."""
    coeffs = _trim(Fraction(c) for c in coeffs)
    scale = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs)


def monic(coeffs):
    return tuple(Fraction(c, coeffs[-1]) for c in coeffs)


def gcd_with_cofactors(a, b):
    """The gcd from poly_gcd, once its cofactors pass g * (a/g) = a and
    g * (b/g) = b."""
    g, u, v = poly_gcd(a, b)
    assert tuple(ref_mul(g, u)) == a and tuple(ref_mul(g, v)) == b
    return g


class Ref:
    """An element of Q(e) as Fraction coefficient lists, reduced by
    Euclid over Q and scaled to den's trailing coefficient 1: the oracle
    for EpsRational."""

    def __init__(self, num, den=(1,)):
        num, den = _trim(Fraction(c) for c in num), _trim(den)
        if not num:
            num, den = [], [Fraction(1)]
        g = reference_gcd(num, den)
        (num, r), (den, s) = ref_divmod(num, g), ref_divmod(den, g)
        assert not r and not s
        t = next(c for c in den if c)
        self.num = tuple(c / t for c in num)
        self.den = tuple(c / t for c in den)
        self.degree = max(len(self.num), len(self.den)) - 1

    def __add__(self, o):
        return Ref(ref_add(ref_mul(self.num, o.den), ref_mul(o.num, self.den)),
                   ref_mul(self.den, o.den))

    def __neg__(self):
        return Ref([-c for c in self.num], self.den)

    def __mul__(self, o):
        return Ref(ref_mul(self.num, o.num), ref_mul(self.den, o.den))

    def inverse(self):
        return Ref(self.den, self.num)


def _ref_pow(f, k):
    out = Ref((1,))
    for _ in range(k):
        out = out * f
    return out


# Each operation with the canonical values it forms: f / g forms 1/g on
# the way, and a sum, difference, product or power forms only its result.
OPERATIONS = {
    "+": (lambda f, g: f + g, lambda f, g: [f + g]),
    "-": (lambda f, g: f - g, lambda f, g: [f + -g]),
    "*": (lambda f, g: f * g, lambda f, g: [f * g]),
    "/": (lambda f, g: f / g, lambda f, g: [g.inverse(), f * g.inverse()]),
    "**0": (lambda f, g: f ** 0, lambda f, g: [_ref_pow(f, 0)]),
    "**1": (lambda f, g: f ** 1, lambda f, g: [_ref_pow(f, 1)]),
    "**3": (lambda f, g: f ** 3, lambda f, g: [_ref_pow(f, 3)]),
}


def assert_agrees(value, ref):
    assert value.num.coeffs == ref.num
    assert value.den.coeffs == ref.den
    o = value.ord0()
    ref_o = PLUS_INFINITY if not ref.num else (
        next(i for i, c in enumerate(ref.num) if c)
        - next(i for i, c in enumerate(ref.den) if c))
    assert o == ref_o
    if o >= 0:
        assert value.eval0() == (Fraction(0) if o else ref.num[o] / ref.den[o])


def check_against_reference(f_pair, g_pair, bound):
    """Every operation on EpsRationals agrees with the reference and,
    under degree_limit(bound), overflows exactly when some canonical
    value the reference forms exceeds the bound."""
    f, g = EpsRational(*f_pair), EpsRational(*g_pair)
    rf, rg = Ref(*f_pair), Ref(*g_pair)
    assert_agrees(f, rf)
    assert_agrees(g, rg)
    for name, (op, ref_op) in OPERATIONS.items():
        if name == "/" and g.is_zero:
            continue
        formed = ref_op(rf, rg)
        with degree_limit(bound):
            try:
                value = op(f, g)
            except DegreeOverflowError:
                value = None
        overflows = bound is not None and max(
            r.degree for r in formed) > bound
        assert (value is None) == overflows, name
        if value is not None:
            assert_agrees(value, formed[-1])


small_pairs = st.tuples(
    st.lists(small_fracs, min_size=0, max_size=4),
    st.lists(small_fracs, min_size=1, max_size=4).filter(any))


@settings(max_examples=300, deadline=None)
@given(f=small_pairs, g=small_pairs,
       bound=st.one_of(st.none(), st.integers(0, 8)))
# e/(1 + e) + 1/(1 + e) = 1: the numerator of the sum shares the factor
# 1 + e with the denominators' gcd.
@example(f=((0, 1), (1, 1)), g=((1,), (1, 1)), bound=None)
def test_kernel_matches_the_euclid_reference(f, g, bound):
    check_against_reference(f, g, bound)


# -- int and Fraction operands against the same constant made an EpsRational

SCALAR_FORMS = {
    "x + c": lambda x, c: x + c,
    "c + x": lambda x, c: c + x,
    "x - c": lambda x, c: x - c,
    "c - x": lambda x, c: c - x,
    "x * c": lambda x, c: x * c,
    "c * x": lambda x, c: c * x,
    "x / c": lambda x, c: x / c,
    "c / x": lambda x, c: c / x,
}

scalars = st.one_of(st.integers(-12, 12),
                    st.fractions(min_value=-12, max_value=12,
                                 max_denominator=9))


def _pair_or_overflow(op, x, c, bound):
    with degree_limit(bound):
        try:
            value = op(x, c)
        except DegreeOverflowError:
            return None
    return value._num, value._den


def _gcd_and_coerce_fail(*args):
    raise AssertionError("scalar operand took the EpsRational route")


@settings(max_examples=300, deadline=None)
@given(x=eps_rationals(), c=scalars,
       bound=st.one_of(st.none(), st.integers(0, 4)))
@example(x=E * E, c=0, bound=1)
@example(x=E, c=Fraction(-3, 4), bound=0)
def test_scalar_operands_match_the_coerced_constant(x, c, bound):
    """Each operator form with an int or Fraction operand gives the pair
    that the same operation with the constant as an EpsRational gives,
    and overflows the bound exactly when that does, without building an
    EpsRational from the constant or running a gcd."""
    coerced = EpsRational._coerce(c)
    for name, op in SCALAR_FORMS.items():
        if (name == "x / c" and not c) or (name == "c / x" and x.is_zero):
            continue
        expected = _pair_or_overflow(op, x, coerced, bound)
        saved = epsfield.poly_gcd, EpsRational.__dict__["_coerce"]
        epsfield.poly_gcd = _gcd_and_coerce_fail
        EpsRational._coerce = staticmethod(_gcd_and_coerce_fail)
        try:
            got = _pair_or_overflow(op, x, c, bound)
        finally:
            epsfield.poly_gcd, EpsRational._coerce = saved
        assert got == expected, name


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_scalar_division_by_zero(zero):
    with pytest.raises(DivisionByZeroError):
        E / zero
    for c in (zero, 3, Fraction(-2, 5)):
        with pytest.raises(DivisionByZeroError):
            c / const(0)


def poly_lists(max_size=5):
    return st.lists(small_fracs, min_size=0, max_size=max_size)


Q = (1 << 61) - 1
SHARED_Q = (1, 1, Q)            # 1 + e + q e^2: its leading coefficient is 0 mod q
# Pairs (f, g) that a gcd modulo the prime q cannot decide: shared
# factors with a leading coefficient divisible by q, 1 + e against
# 1 - q + e and e against e - q (coprime, but equal mod q); and shared
# factors of positive degree that are not powers of e, one of them the
# shorter operand itself (e(1 + e) against (1 - e)(1 + e)).
HARD_GCD_CASES = [
    ((ref_mul(SHARED_Q, (2, 1)), ref_mul(SHARED_Q, (3, -1))),
     (SHARED_Q, (5, 1))),
    (((1,), SHARED_Q), ((2,), ref_mul(SHARED_Q, (1, 1)))),
    (((1,), (1, 1)), ((1,), (1 - Q, 1))),
    (((1, 1), (0, 1)), ((1,), (-Q, 1))),
    (((2, 3, 1), (0, 3, 4, 1)), ((1, 2, 1), (6, 5, 1))),
    (((Fraction(1, 2), 0, 1), (0, 0, 1, 0, 1)), ((0, 1, 1), (1, 0, -1))),
    ((ref_mul((1, 0, 1), (2, 1)), ref_mul((1, 0, 1), (-1, 0, 3))),
     ((1,), (1, 1))),
]


# The test keeps its name from when these cases ran the primitive PRS.
@pytest.mark.parametrize("bound", [None, 3, 6])
@pytest.mark.parametrize("f,g", HARD_GCD_CASES)
def test_kernel_matches_the_reference_on_the_prs_path(f, g, bound):
    check_against_reference(f, g, bound)


@settings(max_examples=200, deadline=None)
@given(a=poly_lists(), b=poly_lists())
def test_poly_gcd_matches_reference(a, b):
    g = gcd_with_cofactors(ints(a), ints(b))
    assert monic(g) == reference_gcd(a, b)
    assert not g or (g[-1] > 0 and gcd(*g) == 1)    # primitive


@settings(max_examples=200, deadline=None)
@given(f=poly_lists(4), g=poly_lists(4),
       h=st.lists(small_fracs, min_size=2, max_size=3).filter(
           lambda h: h[-1] != 0))
def test_poly_gcd_finds_a_shared_factor(f, g, h):
    a, b = ref_mul(f, h), ref_mul(g, h)
    expected = reference_gcd(a, b)
    assert monic(gcd_with_cofactors(ints(a), ints(b))) == expected
    if any(a) and any(b):
        assert len(expected) >= len(h)    # h divides the gcd


@settings(max_examples=200, deadline=None)
@given(g=st.lists(small_fracs, min_size=2, max_size=4).filter(
           lambda g: g[-1] != 0),
       u=poly_lists(3), v=poly_lists(3), divisor=st.booleans())
def test_poly_gcd_of_a_multiple(g, u, v, divisor):
    """(g*u, g) and (g*u, g*v) against Euclid over Q, in both orders."""
    a, b = ref_mul(g, u), (g if divisor else ref_mul(g, v))
    expected = reference_gcd(a, b)
    assert monic(gcd_with_cofactors(ints(a), ints(b))) == expected
    assert monic(gcd_with_cofactors(ints(b), ints(a))) == expected


def _seeded_poly(rng, degree, bits):
    """Random integer coefficients below 2**bits, of exact degree."""
    coeffs = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(degree)]
    return coeffs + [rng.randrange(1, 1 << bits)]


@pytest.mark.parametrize("planted", [False, True])
def test_poly_gcd_at_the_degrees_of_the_qrt_sweep(planted):
    """Degree 56 against 21 with 32-bit coefficients, the sizes the QRT
    sweep reaches: a coprime pair, and a pair sharing e**3 times a planted
    factor of degree 14; against Euclid over Q, in both orders."""
    rng = random.Random(56021)
    if planted:
        h = ref_mul((0, 0, 0, 1), _seeded_poly(rng, 14, 32))
        a = ref_mul(_seeded_poly(rng, 39, 32), h)
        b = ref_mul((0, 0, 1), ref_mul(_seeded_poly(rng, 2, 32), h))
    else:
        a, b = _seeded_poly(rng, 56, 32), _seeded_poly(rng, 21, 32)
    assert (len(a) - 1, len(b) - 1) == (56, 21)
    expected = reference_gcd(a, b)
    assert len(expected) - 1 == (17 if planted else 0)
    assert gcd_with_cofactors(ints(a), ints(b)) == ints(expected)
    assert gcd_with_cofactors(ints(b), ints(a)) == ints(expected)


def _product_of_shifts(lo, hi):
    """(e + lo)(e + lo + 1)...(e + hi)."""
    out = [1]
    for k in range(lo, hi + 1):
        out = ref_mul(out, (k, 1))
    return out


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("m", [10, 14, 20])
def test_poly_gcd_past_a_failed_evaluation_point(m, planted, monkeypatch):
    """(e + 1)...(e + m) against (e + m + 1)...(e + 2m), alone and times
    the common factor e**2 + 3e + 7: their values at the first xi share
    integer factors that the gcd does not explain, so the first candidate
    fails and xi grows.  Against Euclid over Q, in both orders."""
    a, b = _product_of_shifts(1, m), _product_of_shifts(m + 1, 2 * m)
    if planted:
        a, b = ref_mul(a, (7, 3, 1)), ref_mul(b, (7, 3, 1))
    points = set()
    value = epsfield._value
    monkeypatch.setattr(epsfield, "_value",
                        lambda f, xi: points.add(xi) or value(f, xi))
    expected = ints(reference_gcd(a, b))
    assert expected == ((7, 3, 1) if planted else (1,))
    assert gcd_with_cofactors(ints(a), ints(b)) == expected
    assert len(points) >= 2
    assert gcd_with_cofactors(ints(b), ints(a)) == expected


@pytest.mark.parametrize("seed", range(6))
def test_poly_gcd_matches_sympy(seed):
    """Seeded pairs of degree 56 against degree up to 56, sharing a
    factor of degree up to 14 times a power of e, against sympy's
    primitive gcd over Z when sympy is installed."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    shared = ref_mul([0] * rng.randint(0, 3) + [1],
                     _seeded_poly(rng, rng.randint(0, 14), 16))
    k = len(shared) - 1
    a = ints(ref_mul(shared, _seeded_poly(rng, 56 - k, 16)))
    b = ints(ref_mul(shared, _seeded_poly(rng, rng.randint(0, 56 - k), 16)))
    e = sympy.Symbol("e")
    expected = sympy.Poly(a[::-1], e).gcd(sympy.Poly(b[::-1], e))
    expected = tuple(int(c) for c in expected.primitive()[1].all_coeffs())
    assert gcd_with_cofactors(a, b) == expected[::-1]
    assert gcd_with_cofactors(b, a) == expected[::-1]


def test_poly_gcd_when_q_divides_a_denominator():
    # Clearing the denominator q of e + 1/q gives 1 + q*e, whose leading
    # coefficient vanishes mod q.
    shared = (Fraction(1, Q), 1)                       # e + 1/q
    a, b = ints(ref_mul(shared, (2, 1))), ints(ref_mul(shared, (3, 1)))
    assert monic(gcd_with_cofactors(a, b)) == shared
    coprime = ints((Fraction(1, Q), 1)), ints((2, 1))
    assert gcd_with_cofactors(*coprime) == (1,)


def test_poly_gcd_when_coprime_only_over_q():
    # e and e - q are coprime over Q but equal mod q, and so are 1 + e and
    # 1 - q + e; 1 + e + q e^2 has a leading coefficient divisible by q.
    e, e_minus_q = (0, 1), (-Q, 1)
    assert gcd_with_cofactors(e, e_minus_q) == (1,)
    lead_q = (1, 1, Q)
    assert gcd_with_cofactors(lead_q, e) == (1,)
    one_plus_e, one_minus_q_plus_e = (1, 1), (1 - Q, 1)
    assert gcd_with_cofactors(one_plus_e, one_minus_q_plus_e) == (1,)


def test_poly_gcd_with_a_constant_is_one():
    assert gcd_with_cofactors((3,), (2, 3, 1)) == (1,)
    assert gcd_with_cofactors((1, 1), ints((Fraction(-1, 7),))) == (1,)
    assert gcd_with_cofactors((5,), ()) == (1,)
    assert poly_gcd((), ()) == ((), (), ())


def repeated_product(f, k):
    out = const(1)
    for _ in range(k):
        out = out * f
    return out


@settings(max_examples=150, deadline=None)
@given(f=eps_rationals(), k=st.integers(0, 6))
def test_pow_equals_repeated_product(f, k):
    power = f ** k
    assert power == repeated_product(f, k)
    assert poly_gcd(power._num, power._den)[0] == (1,)
    assert gcd(*power._num, *power._den) == 1
    assert power.den.trailing() == 1


@settings(max_examples=150, deadline=None)
@given(f=eps_rationals(), k=st.integers(0, 6), bound=st.integers(0, 12))
def test_pow_overflows_exactly_when_repeated_product_does(f, k, bound):
    outcomes = []
    for compute in (lambda: f ** k, lambda: repeated_product(f, k)):
        with degree_limit(bound):
            try:
                outcomes.append(compute())
            except DegreeOverflowError:
                outcomes.append(None)
    assert outcomes[0] == outcomes[1]


def test_exact_div_raises_on_a_remainder():
    with pytest.raises(Dp2Error):
        _exact_div((1, 1), (2, 1))
    with pytest.raises(Dp2Error):
        _exact_div((1, 1), (1, 2))      # exact over Q, not in Z[e]
    with pytest.raises(Dp2Error):
        _exact_div((1,), (1, 1))


# -- the certificate that a value reduces the same at every lift --------------

def _at(coeffs, e):
    return sum(c * e**i for i, c in enumerate(coeffs))


def _reduction_at(f, e, p):
    return reduce_proj(Fraction(_at(f._num, e), _at(f._den, e)), p)


def _certified_point(f, p):
    """[N_0 p**-v : D_0 p**-v] in P^1(F_p), with v = min(vp(N_0), vp(D_0))."""
    n0, d0 = f._num[0] if f._num else 0, f._den[0]
    v = min(vp(c, p) for c in (n0, d0) if c)
    n0, d0 = n0 // p**v, d0 // p**v
    if d0 % p == 0:
        return FpProj.infinity(p)
    return reduce_proj(Fraction(n0, d0), p)


@st.composite
def p_adic_values(draw):
    """A prime p and a canonical value whose coefficients are small ints
    times powers of p, so that the certificate's test is often close."""
    p = draw(st.sampled_from((3, 5, 7)))
    coeff = st.builds(lambda u, j: u * p**j, st.integers(-4, 4),
                      st.integers(0, 3))
    num = draw(st.lists(coeff, max_size=4))
    den = draw(st.lists(coeff, min_size=1, max_size=4).filter(any))
    return p, EpsRational(EpsPoly(num), EpsPoly(den))


@settings(max_examples=500, deadline=None)
@given(pv=p_adic_values(), c=st.integers(-60, 60), k=st.integers(1, 4))
def test_certificate_gives_the_reduction_at_every_lift(pv, c, k):
    p, f = pv
    e = c * p**k
    if f.reduces_uniformly(p) and _at(f._den, e):
        assert _reduction_at(f, e, p) == _certified_point(f, p)


@settings(max_examples=300, deadline=None)
@given(pv=p_adic_values())
def test_proj0_is_the_reduction_of_the_limit(pv):
    p, f = pv
    o = f.ord0()
    expected = (FpProj.infinity(p) if o < 0
                else reduce_proj(f.eval0(), p))
    assert f.proj0(p) == expected


# Values f(e) of Q(e) given as (num, den) coefficient lists in p, which
# reduce differently at the lifts e = p and e = 2p.
LIFT_DEPENDENT = [
    lambda p: ((p, 1), (p,)),              # 1 + e/p
    lambda p: ((0, 1), (p,)),              # e/p
    lambda p: ((p * p, p, 1), (p * p,)),   # 1 + e/p + e^2/p^2
    lambda p: ((p, 1), (0, 1)),            # 1 + p/e
    lambda p: ((p,), (p, 1)),              # p/(p + e)
]
# Values that reduce to [N_0 p**-v : D_0 p**-v] at every lift.
LIFT_INDEPENDENT = [
    lambda p: ((p, p, 1), (p,)),           # 1 + e + e^2/p
    lambda p: ((p * p, p, 1), (p,)),       # p + e + e^2/p
    lambda p: ((1, 1), (0, 1)),            # 1 + 1/e
    lambda p: ((1,), (p, 1)),              # 1/(p + e)
    lambda p: ((2, 5, 7), (3, 1)),         # v = 0: every lift
]


def _value(case, p):
    num, den = case(p)
    return EpsRational(EpsPoly(num), EpsPoly(den))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("case", LIFT_DEPENDENT)
def test_certificate_refuses_a_lift_dependent_value(case, p):
    f = _value(case, p)
    assert _reduction_at(f, p, p) != _reduction_at(f, 2 * p, p)
    assert not f.reduces_uniformly(p)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("case", LIFT_INDEPENDENT)
def test_certificate_accepts_a_lift_independent_value(case, p):
    f = _value(case, p)
    assert f.reduces_uniformly(p)
    for e in (p, 2 * p, p * p, -p**3):
        if _at(f._den, e):
            assert _reduction_at(f, e, p) == _certified_point(f, p)
