"""Perturbation polynomials and their quotient field."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp2fp import EpsPoly, EpsRational, degree_limit, eval0, ord0
from dp2fp import epsfield
from dp2fp.epsfield import (GCD_CHECK_PRIME, ONE, ZERO, _certified_coprime,
                            _exact_div, poly_gcd)
from dp2fp.errors import (DegreeOverflowError, DivisionByZeroError, Dp2Error,
                          PoleAtZeroError)
from dp2fp.padic import PLUS_INFINITY

E = EpsRational.eps()


def const(c):
    return EpsRational.from_const(Fraction(c))


def test_arith_examples():
    assert (const(1) + E) - const(1) == E
    assert E * (const(1) / E) == const(1)
    assert (const(2) + E) / (const(2) + E) == const(1)


def test_ord0_examples():
    assert ord0(E * E / (const(2) + E)) == 2
    assert ord0((const(1) + E) / E) == -1
    assert ord0(const(0)) == PLUS_INFINITY


def test_eval0_examples():
    assert eval0((2 * E + 3 * E * E) / E) == Fraction(2)
    assert eval0((const(1) + E) / (const(1) - E)) == Fraction(1)
    with pytest.raises(PoleAtZeroError):
        eval0(const(1) / E)


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
    assert poly_gcd(a, b) == (1, 1)
    assert poly_gcd(b, ()) == (1, 1)


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
    assert ord0(g) == 31


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
    assert ord0(f * g) == ord0(f) + ord0(g)


@settings(max_examples=250, deadline=None)
@given(f=eps_rationals(), g=eps_rationals())
def test_ord0_superadditive_on_sums(f, g):
    s = f + g
    if f.is_zero or g.is_zero or s.is_zero:
        return
    assert ord0(s) >= min(ord0(f), ord0(g))


@settings(max_examples=250, deadline=None)
@given(f=eps_rationals(), g=eps_rationals())
def test_eval0_is_a_ring_homomorphism(f, g):
    if ord0(f) < 0 or ord0(g) < 0:
        return
    assert eval0(f + g) == eval0(f) + eval0(g)
    assert eval0(f * g) == eval0(f) * eval0(g)


@settings(max_examples=150, deadline=None)
@given(c=small_fracs)
def test_constant_round_trip(c):
    assert eval0(const(c)) == c


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
    assert poly_gcd(num, den) == (1,)
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


# Each operation with the canonical values it forms: f - g forms -g and
# f / g forms 1/g on the way, and a power forms only its result.
OPERATIONS = {
    "+": (lambda f, g: f + g, lambda f, g: [f + g]),
    "-": (lambda f, g: f - g, lambda f, g: [-g, f + -g]),
    "*": (lambda f, g: f * g, lambda f, g: [f * g]),
    "/": (lambda f, g: f / g, lambda f, g: [g.inverse(), f * g.inverse()]),
    "**0": (lambda f, g: f ** 0, lambda f, g: [_ref_pow(f, 0)]),
    "**1": (lambda f, g: f ** 1, lambda f, g: [_ref_pow(f, 1)]),
    "**3": (lambda f, g: f ** 3, lambda f, g: [_ref_pow(f, 3)]),
}


def assert_agrees(value, ref):
    assert value.num.coeffs == ref.num
    assert value.den.coeffs == ref.den
    o = ord0(value)
    ref_o = PLUS_INFINITY if not ref.num else (
        next(i for i, c in enumerate(ref.num) if c)
        - next(i for i, c in enumerate(ref.den) if c))
    assert o == ref_o
    if o >= 0:
        assert eval0(value) == (Fraction(0) if o else ref.num[o] / ref.den[o])


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
def test_kernel_matches_the_euclid_reference(f, g, bound):
    check_against_reference(f, g, bound)


def poly_lists(max_size=5):
    return st.lists(small_fracs, min_size=0, max_size=max_size)


Q = GCD_CHECK_PRIME
SHARED_Q = (1, 1, Q)            # 1 + e + q e^2: its leading coefficient is 0 mod q
# Pairs (f, g) whose gcds the modular certificate refuses, so the kernel
# runs the primitive PRS: shared factors with a leading coefficient
# divisible by q, 1 + e against 1 - q + e (coprime, but equal mod q), and
# shared factors of positive degree that are not powers of e.  e against
# e - q is refused too, but its gcd is read off the orders of e.
PRS_CASES = [
    ((ref_mul(SHARED_Q, (2, 1)), ref_mul(SHARED_Q, (3, -1))),
     (SHARED_Q, (5, 1)), True),
    (((1,), SHARED_Q), ((2,), ref_mul(SHARED_Q, (1, 1))), True),
    (((1,), (1, 1)), ((1,), (1 - Q, 1)), True),
    (((1, 1), (0, 1)), ((1,), (-Q, 1)), False),
    (((2, 3, 1), (0, 3, 4, 1)), ((1, 2, 1), (6, 5, 1)), True),
    (((Fraction(1, 2), 0, 1), (0, 0, 1, 0, 1)), ((0, 1, 1), (1, 0, -1)), True),
]


@pytest.mark.parametrize("bound", [None, 3, 6])
@pytest.mark.parametrize("f,g,runs_prs", PRS_CASES)
def test_kernel_matches_the_reference_on_the_prs_path(f, g, runs_prs, bound,
                                                      monkeypatch):
    runs = []
    prs = epsfield._prs_gcd
    monkeypatch.setattr(epsfield, "_prs_gcd",
                        lambda a, b: runs.append((a, b)) or prs(a, b))
    check_against_reference(f, g, bound)
    if bound is None:
        assert bool(runs) == runs_prs


@settings(max_examples=200, deadline=None)
@given(a=poly_lists(), b=poly_lists())
def test_poly_gcd_matches_reference(a, b):
    g = poly_gcd(ints(a), ints(b))
    assert monic(g) == reference_gcd(a, b)
    assert not g or (g[-1] > 0 and gcd(*g) == 1)    # primitive


@settings(max_examples=200, deadline=None)
@given(f=poly_lists(4), g=poly_lists(4),
       h=st.lists(small_fracs, min_size=2, max_size=3).filter(
           lambda h: h[-1] != 0))
def test_poly_gcd_finds_a_shared_factor(f, g, h):
    a, b = ref_mul(f, h), ref_mul(g, h)
    expected = reference_gcd(a, b)
    assert monic(poly_gcd(ints(a), ints(b))) == expected
    if any(a) and any(b):
        assert len(expected) >= len(h)    # h divides the gcd


def test_poly_gcd_falls_back_when_q_divides_a_denominator():
    # Clearing the denominator q of e + 1/q gives 1 + q*e, whose leading
    # coefficient the certificate refuses.
    shared = (Fraction(1, Q), 1)                       # e + 1/q
    a, b = ints(ref_mul(shared, (2, 1))), ints(ref_mul(shared, (3, 1)))
    assert not _certified_coprime(a, b)
    assert monic(poly_gcd(a, b)) == shared
    coprime = ints((Fraction(1, Q), 1)), ints((2, 1))
    assert not _certified_coprime(*coprime)
    assert poly_gcd(*coprime) == (1,)


def test_poly_gcd_falls_back_when_coprime_only_over_q():
    # e and e - q are coprime over Q but equal mod q, so the certificate
    # cannot decide them; a leading coefficient divisible by q is refused.
    e, e_minus_q = (0, 1), (-Q, 1)
    assert not _certified_coprime(e, e_minus_q)
    assert poly_gcd(e, e_minus_q) == (1,)
    lead_q = (1, 1, Q)
    assert not _certified_coprime(lead_q, e)
    assert poly_gcd(lead_q, e) == (1,)
    one_plus_e, one_minus_q_plus_e = (1, 1), (1 - Q, 1)
    assert not _certified_coprime(one_plus_e, one_minus_q_plus_e)
    assert poly_gcd(one_plus_e, one_minus_q_plus_e) == (1,)


def test_poly_gcd_with_a_constant_is_one():
    assert poly_gcd((3,), (2, 3, 1)) == (1,)
    assert poly_gcd((1, 1), ints((Fraction(-1, 7),))) == (1,)
    assert poly_gcd((5,), ()) == (1,)
    assert poly_gcd((), ()) == ()


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
    assert poly_gcd(power._num, power._den) == (1,)
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
