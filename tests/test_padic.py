"""Valuations, norms, residues, and the projective reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp2fp import (
    PLUS_INFINITY,
    FpElem,
    FpProj,
    fp_inv,
    is_odd_prime,
    parse_rational,
    pnorm,
    reduce_mod,
    reduce_proj,
    vp,
)
from dp2fp.errors import (
    DivisionByZeroError,
    InvalidPrimeError,
    ModulusMismatchError,
    NegativeValuationError,
    ParseError,
)
from dp2fp.padic import format_rational

PRIMES = (3, 5, 7, 11)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4)

nonzero_rationals = rationals.filter(lambda x: x != 0)


def p_integral(p):
    return rationals.filter(lambda x: Fraction(x).denominator % p != 0)


def test_vp_examples():
    assert vp(Fraction(0), 5) == PLUS_INFINITY
    assert vp(Fraction(18, 5), 3) == 2
    assert vp(Fraction(1, 9), 3) == -2


def test_pnorm_examples():
    assert pnorm(Fraction(18, 5), 3) == Fraction(1, 9)
    assert pnorm(Fraction(0), 7) == 0
    assert pnorm(Fraction(3, 7), 5) == 1


def test_reduce_mod_examples():
    assert reduce_mod(Fraction(7, 3), 5) == FpElem(4, 5)
    assert reduce_mod(Fraction(0), 11) == FpElem(0, 11)
    with pytest.raises(NegativeValuationError):
        reduce_mod(Fraction(1, 5), 5)


def test_reduce_proj_examples():
    assert reduce_proj(Fraction(1, 5), 5) == FpProj.infinity(5)
    assert reduce_proj(Fraction(7, 3), 5) == FpProj(5, 4)
    assert reduce_proj(Fraction(-8), 3) == FpProj(3, 1)


def test_fp_inv_examples():
    assert fp_inv(FpElem(1, 7)) == FpElem(1, 7)
    assert fp_inv(FpElem(2, 5)) == FpElem(3, 5)
    assert fp_inv(FpElem(4, 5)) == FpElem(4, 5)
    with pytest.raises(DivisionByZeroError):
        fp_inv(FpElem(0, 5))


def test_two_is_rejected_everywhere():
    assert not is_odd_prime(2)
    with pytest.raises(InvalidPrimeError):
        FpElem(1, 2)
    with pytest.raises(InvalidPrimeError):
        vp(Fraction(4), 2)
    with pytest.raises(InvalidPrimeError):
        reduce_proj(Fraction(1), 9)


def _trial_division_odd_prime(n):
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_miller_rabin_agrees_with_trial_division():
    miller_rabin = is_odd_prime.__wrapped__   # keep the cache small
    assert all(miller_rabin(n) == _trial_division_odd_prime(n)
               for n in range(-2, 200_000))


def test_miller_rabin_large_moduli():
    # strong pseudoprimes to the first few bases
    assert not is_odd_prime(3215031751)
    assert not is_odd_prime(3825123056546413051)
    assert is_odd_prime(2**61 - 1)
    assert is_odd_prime(2**64 - 59)             # the largest prime below 2**64
    assert not is_odd_prime(2**64 - 1)
    # a composite that passes all twelve bases: hence the bound
    with pytest.raises(InvalidPrimeError, match="2\\*\\*64"):
        is_odd_prime(318665857834031151167461)
    with pytest.raises(InvalidPrimeError, match="2\\*\\*64"):
        FpElem(1, 2**64 + 13)


def test_modulus_mismatch_is_an_error():
    with pytest.raises(ModulusMismatchError):
        FpElem(1, 5) + FpElem(1, 7)


def test_fp_elem_arithmetic():
    x = FpElem(3, 7)
    assert x + 5 == FpElem(1, 7)
    assert 1 - x == FpElem(5, 7)
    assert x * x == FpElem(2, 7)
    assert (x / FpElem(2, 7)) * FpElem(2, 7) == x
    assert Fraction(1, 2) + x == FpElem(4 + 3, 7)
    assert x ** 0 == FpElem(1, 7)
    assert -x == FpElem(4, 7)


def test_fp_proj_printing_and_equality():
    assert str(FpProj.infinity(5)) == "inf"
    assert str(FpProj(5, 3)) == "3"
    assert FpProj.infinity(5) == FpProj.infinity(5)
    assert FpProj.infinity(5) != FpProj(5, 0)
    assert FpProj.finite(FpElem(9, 7)) == FpProj(7, 2)


def test_rational_parse_and_format():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("4") == Fraction(4)
    assert parse_rational("0") == Fraction(0)
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(8, 2)) == "4"
    with pytest.raises(ParseError):
        parse_rational("3.5")
    with pytest.raises(ParseError):
        parse_rational("x")
    with pytest.raises(DivisionByZeroError):
        parse_rational("1/0")


@settings(max_examples=300, deadline=None)
@given(x=rationals, y=rationals, p=st.sampled_from(PRIMES))
def test_reduction_is_a_ring_homomorphism(x, y, p):
    if x.denominator % p == 0 or y.denominator % p == 0:
        return
    assert reduce_mod(x + y, p) == reduce_mod(x, p) + reduce_mod(y, p)
    assert reduce_mod(x - y, p) == reduce_mod(x, p) - reduce_mod(y, p)
    assert reduce_mod(x * y, p) == reduce_mod(x, p) * reduce_mod(y, p)


@settings(max_examples=300, deadline=None)
@given(x=rationals, y=rationals, p=st.sampled_from(PRIMES))
def test_ultrametric_inequality(x, y, p):
    lhs = pnorm(x + y, p)
    nx, ny = pnorm(x, p), pnorm(y, p)
    assert lhs <= max(nx, ny)
    if nx != ny:
        assert lhs == max(nx, ny)


@settings(max_examples=300, deadline=None)
@given(x=nonzero_rationals, y=nonzero_rationals, p=st.sampled_from(PRIMES))
def test_valuation_is_multiplicative(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)


@settings(max_examples=200, deadline=None)
@given(x=rationals, p=st.sampled_from(PRIMES))
def test_norm_matches_valuation(x, p):
    v = vp(x, p)
    if v == PLUS_INFINITY:
        assert pnorm(x, p) == 0
    else:
        assert pnorm(x, p) == Fraction(1, p**v) if v >= 0 else Fraction(p**(-v))


@settings(max_examples=200, deadline=None)
@given(x=rationals, y=nonzero_rationals)
def test_fraction_canonical_form(x, y):
    # The Fraction carrier keeps gcd 1 and a positive denominator through
    # arithmetic; every operation in the package relies on this.
    import math
    for value in (x + y, x - y, x * y, x / y):
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1
