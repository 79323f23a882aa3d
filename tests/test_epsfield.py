"""Perturbation polynomials and their quotient field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp2fp import EpsPoly, EpsRational, degree_limit, eval0, ord0
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


def test_poly_divmod_and_gcd():
    a = EpsPoly((2, 3, 1))      # (1+e)(2+e)
    b = EpsPoly((1, 1))
    q, r = a.divmod(b)
    assert r.is_zero and q == EpsPoly((2, 1))
    assert poly_gcd(a, b) == EpsPoly((1, 1))
    assert poly_gcd(b, ZERO) == EpsPoly((1, 1))


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
    g = poly_gcd(f.num, f.den)
    assert g.degree <= 0


# -- the gcd and power shortcuts against plain references ------------------

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _remainder(a, b):
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
        rem = _trim(rem[:-1])
    return rem


def reference_gcd(a, b):
    """Monic gcd of two coefficient lists by the plain Euclidean algorithm
    over Q, with no shortcut; the oracle for poly_gcd."""
    a = _trim(Fraction(c) for c in a)
    b = _trim(Fraction(c) for c in b)
    while b:
        a, b = b, _remainder(a, b)
    return tuple(c / a[-1] for c in a)


def poly_lists(max_size=5):
    return st.lists(small_fracs, min_size=0, max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(a=poly_lists(), b=poly_lists())
def test_poly_gcd_matches_reference(a, b):
    assert poly_gcd(EpsPoly(a), EpsPoly(b)).coeffs == reference_gcd(a, b)


@settings(max_examples=200, deadline=None)
@given(f=poly_lists(4), g=poly_lists(4),
       h=st.lists(small_fracs, min_size=2, max_size=3).filter(
           lambda h: h[-1] != 0))
def test_poly_gcd_finds_a_shared_factor(f, g, h):
    a, b = EpsPoly(f) * EpsPoly(h), EpsPoly(g) * EpsPoly(h)
    expected = reference_gcd(a.coeffs, b.coeffs)
    assert poly_gcd(a, b).coeffs == expected
    if not a.is_zero and not b.is_zero:
        assert len(expected) >= len(h)    # h divides the gcd


def test_poly_gcd_falls_back_when_q_divides_a_denominator():
    q = GCD_CHECK_PRIME
    shared = EpsPoly((Fraction(1, q), 1))              # e + 1/q
    a = shared * EpsPoly((2, 1))
    b = shared * EpsPoly((3, 1))
    assert not _certified_coprime(a.coeffs, b.coeffs)
    assert poly_gcd(a, b) == shared
    coprime = EpsPoly((Fraction(1, q), 1)), EpsPoly((2, 1))
    assert not _certified_coprime(*(f.coeffs for f in coprime))
    assert poly_gcd(*coprime) == ONE


def test_poly_gcd_falls_back_when_coprime_only_over_q():
    # e and e - q are coprime over Q but equal mod q, so the certificate
    # cannot decide them; a leading coefficient divisible by q is refused.
    q = GCD_CHECK_PRIME
    e, e_minus_q = EpsPoly((0, 1)), EpsPoly((-q, 1))
    assert not _certified_coprime(e.coeffs, e_minus_q.coeffs)
    assert poly_gcd(e, e_minus_q) == ONE
    lead_q = EpsPoly((1, 1, q))
    assert not _certified_coprime(lead_q.coeffs, e.coeffs)
    assert poly_gcd(lead_q, e) == ONE


def test_poly_gcd_with_a_constant_is_one():
    assert poly_gcd(EpsPoly((3,)), EpsPoly((2, 3, 1))) == ONE
    assert poly_gcd(EpsPoly((1, 1)), EpsPoly((Fraction(-1, 7),))) == ONE
    assert poly_gcd(EpsPoly((5,)), ZERO) == ONE
    assert poly_gcd(ZERO, ZERO) == ZERO


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
    assert poly_gcd(power.num, power.den) == ONE
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
        _exact_div(EpsPoly((1, 1)), EpsPoly((2, 1)))
