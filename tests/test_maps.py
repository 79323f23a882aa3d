"""dP-II coefficients, the system step, the scalar residual, and the
one-parameter family."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dp2fp import (
    EpsPoly,
    EpsRational,
    QRTParams,
    build_dp2_params,
    dp2_scalar_residual,
    dp2_step,
    ord0,
    qrt_step,
    reduce_mod,
    vp,
)
from dp2fp.errors import (
    DivisionByZeroError,
    Dp2Error,
    NoExactZeroError,
    NonIntegralParameterError,
)
from dp2fp.maps import dp2_window_map

TAU_PARAMS_5 = dict(p=5, a=-8, delta=2, z0=2)


def zero_shift_oracle(p, a, delta, z0, kind):
    """Independent scan over shifts in [-50, 50] for an exact table zero."""
    hits = []
    for shift in range(-50, 51):
        if kind == "alpha":
            table = [Fraction(i * delta + z0 + a + shift * p, 2) for i in range(p)]
        else:
            table = [Fraction(-i * delta - z0 + a + shift * p, 2) for i in range(p)]
        if any(v == 0 for v in table):
            hits.append((shift, tuple(table)))
    return hits


def test_build_tables_match_spec_values():
    params = build_dp2_params(**TAU_PARAMS_5)
    assert params.n_alpha == 0
    assert tuple(params.alpha(i) for i in range(5)) == \
        tuple(Fraction(v) for v in (-3, -2, -1, 0, 1))
    assert params.n_beta == 2
    assert tuple(params.beta(i) for i in range(5)) == \
        tuple(Fraction(v) for v in (0, -1, -2, -3, -4))


def test_table_units_and_invariant_checks():
    params = build_dp2_params(**TAU_PARAMS_5)
    # residues of the coefficients, None at the exact zeros
    assert params.alpha_units == (2, 3, 4, None, 1)
    assert params.beta_units == (None, 4, 3, 2, 1)


@pytest.mark.parametrize("p,a,delta,z0", [
    (5, -8, 2, 2), (5, -2, 2, 2), (3, 6, 2, 2), (7, 4, 2, 2), (11, -8, 2, 2),
    (5, 0, 0, 0), (7, 3, 9, -4), (13, 5, -3, 7), (31, 0, 1, 0),
    (101, 7, 3, 2),
])
def test_build_agrees_with_shift_scan_oracle(p, a, delta, z0):
    params = build_dp2_params(p, a, delta, z0)
    for kind, shift, coeff in (
        ("alpha", params.n_alpha, params.alpha),
        ("beta", params.n_beta, params.beta),
    ):
        table = tuple(coeff(i) for i in range(p))
        hits = zero_shift_oracle(p, a, delta, z0, kind)
        assert (shift, table) in hits
        assert any(v == 0 for v in table)


@pytest.mark.parametrize("n", range(3))
def test_table_residues_match_defining_formula(n):
    params = build_dp2_params(3, -8, 2, 2)
    assert reduce_mod(params.alpha(n), 3) == \
        reduce_mod(Fraction(n * 2 + 2 - 8, 2), 3)
    assert reduce_mod(params.beta(n), 3) == \
        reduce_mod(Fraction(-n * 2 - 2 - 8, 2), 3)


def test_table_entries_are_units_or_exact_zeros():
    for p in (3, 5, 7, 11):
        params = build_dp2_params(p, -8, 2, 2)
        for i in range(p):
            for v in (params.alpha(i), params.beta(i)):
                assert v == 0 or vp(v, p) == 0


@st.composite
def dp2_inputs(draw):
    """p-integral (a, delta, z0); delta is zero mod p in about a quarter."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))

    def rational():
        den = draw(st.integers(1, 12).filter(lambda d: d % p != 0))
        return Fraction(draw(st.integers(-4 * p, 4 * p)), den)

    a, z0 = rational(), rational()
    if draw(st.integers(0, 3)) == 0:
        delta = Fraction(p * draw(st.integers(-2, 2)))
    else:
        delta = rational()
    return p, a, delta, z0


@settings(max_examples=300, deadline=None, database=None)
@example((5, Fraction(0), Fraction(0), Fraction(0)))
@example((3, Fraction(6), Fraction(4), Fraction(-5)))
@given(dp2_inputs())
def test_coefficients_are_exact_zeros_or_units_of_their_residue(inputs):
    # alpha_units/beta_units mark the exact zeros with None; the seven-case
    # engine dispatches on them, so None must mean exactly zero.
    p, a, delta, z0 = inputs
    d_res = reduce_mod(delta, p).residue
    try:
        params = build_dp2_params(p, a, delta, z0)
    except NoExactZeroError:
        assert d_res == 0 and (a, delta, z0) != (0, 0, 0)
        return
    for sign, coeff, units in ((1, params.alpha, params.alpha_units),
                               (-1, params.beta, params.beta_units)):
        assert len(units) == p
        assert units.count(None) == (1 if d_res else p)
        for i in range(p):
            value = coeff(i)
            residue = reduce_mod((sign * (i * delta + z0) + a) / 2, p).residue
            if units[i] is None:
                assert value == 0 and residue == 0
            else:
                assert value != 0 and vp(value, p) == 0
                assert reduce_mod(value, p).residue == units[i] == residue
            assert coeff(i + p) == coeff(i - p) == value


def test_coefficient_identities():
    params = build_dp2_params(**TAU_PARAMS_5)
    p = params.p
    for n in range(-7, 12):
        s = params.alpha(n) + params.beta(n)
        assert s == params.a + (params.n_alpha + params.n_beta) * p / 2
        assert reduce_mod(s, p) == reduce_mod(params.a, p)
        assert reduce_mod(params.alpha(n) - params.beta(n), p) == \
            reduce_mod(params.delta * n + params.z0, p)


def test_no_exact_zero_cases():
    # delta = 0 mod p with a unit offset: no shift can zero a coefficient.
    with pytest.raises(NoExactZeroError, match="admits no exact zero"):
        build_dp2_params(5, 1, 5, 2)
    # delta = 0 mod p with the offset congruent to zero but not exactly
    # zero cannot keep every coefficient a unit or an exact zero
    with pytest.raises(NoExactZeroError, match="degenerate parameters"):
        build_dp2_params(5, 0, 5, 0)
    # all-zero degenerate family is representable
    degenerate = build_dp2_params(5, 0, 0, 0)
    assert all(degenerate.alpha(n) == degenerate.beta(n) == 0
               for n in range(-5, 10))
    assert degenerate.alpha_units == degenerate.beta_units == (None,) * 5
    with pytest.raises(NonIntegralParameterError):
        build_dp2_params(5, Fraction(1, 5), 2, 2)


def test_dp2_step_example():
    params = build_dp2_params(**TAU_PARAMS_5)
    assert dp2_step(Fraction(0), Fraction(0), 3, params) == \
        (Fraction(-3), Fraction(0))


def test_dp2_step_singularity():
    params = build_dp2_params(**TAU_PARAMS_5)
    with pytest.raises(DivisionByZeroError):
        dp2_step(Fraction(1), Fraction(7), 0, params)
    with pytest.raises(DivisionByZeroError):
        dp2_step(Fraction(-1), Fraction(7), 0, params)


def test_window_anchor_must_reduce_to_the_tables():
    # alpha + beta = a holds for real params; this stub breaks it mod p, so
    # the anchor (alpha0, a - alpha0) cannot reduce to (alpha(n0), beta(n0)).
    # The check raises, so it holds under python -O as well.
    broken = SimpleNamespace(p=5, a=Fraction(1), delta=Fraction(2),
                             alpha=lambda n: Fraction(3),
                             beta=lambda n: Fraction(4))
    with pytest.raises(Dp2Error):
        dp2_window_map(broken, 1, 0)


def test_dp2_step_perturbed_pole_order():
    params = build_dp2_params(**TAU_PARAMS_5)
    x = EpsRational(EpsPoly((1, 1)))
    x_next, y_next = dp2_step(x, EpsRational.from_const(3), 4, params)
    assert ord0(x_next) == -1
    assert y_next == x


def scalar_step_oracle(u_prev, u, n, params):
    """Cross-check for the system step: the same recurrence in scalar form,
    with the linear coefficient and constant read off alpha and beta."""
    z = params.alpha(n) - params.beta(n)
    c = params.alpha(n) + params.beta(n)
    return (z * u + c) / (1 - u * u) - u_prev


def test_system_step_matches_scalar_oracle():
    params = build_dp2_params(**TAU_PARAMS_5)
    rng = random.Random(42)
    for _ in range(200):
        u = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7)))
        if u == 1 or u == -1:
            continue
        y = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7)))
        n = rng.randint(-10, 10)
        x_next, y_next = dp2_step(u, y, n, params)
        assert x_next == scalar_step_oracle(y, u, n, params)
        assert y_next == u


def test_iterated_step_solves_table_form_recurrence():
    # y-components of the orbit reproduce the scalar sequence; checked on a
    # window inside one period so the coefficients are the affine ones.
    params = build_dp2_params(5, 2, 2, -4)
    state = (Fraction(1, 2), Fraction(2))
    us = [state[1], state[0]]
    for n in range(1, 4):
        state = dp2_step(state[0], state[1], n, params)
        us.append(state[0])
    for n in range(1, 4):
        z = params.alpha(n) - params.beta(n)
        c = params.alpha(n) + params.beta(n)
        lhs = us[n + 1] + us[n - 1]
        assert lhs == (z * us[n] + c) / (1 - us[n] ** 2)


def test_scalar_residual_examples():
    params = build_dp2_params(**TAU_PARAMS_5)
    u_prev, u, n = Fraction(3), Fraction(1, 2), 2
    z_n = params.delta * n + params.z0
    u_next = (z_n * u + params.a) / (1 - u * u) - u_prev
    assert dp2_scalar_residual(u_prev, u, u_next, n, params) == 0
    assert dp2_scalar_residual(0, 0, 0, 5, params) == -params.a != 0
    with pytest.raises(DivisionByZeroError):
        dp2_scalar_residual(0, 1, 0, 5, params)


def test_qrt_step_examples():
    assert qrt_step(Fraction(1), Fraction(1), QRTParams(5, 2, 1)) == \
        (Fraction(2), Fraction(1))
    assert qrt_step(Fraction(1), Fraction(2), QRTParams(5, 0, 1)) == \
        (Fraction(1), Fraction(1))
    x, y = qrt_step(EpsRational.eps(), EpsRational.from_const(1),
                    QRTParams(5, 2, 1))
    assert ord0(x) == -2
    assert y == EpsRational.eps()
    with pytest.raises(DivisionByZeroError):
        qrt_step(Fraction(0), Fraction(1), QRTParams(5, 2, 1))


def test_qrt_params_validation():
    with pytest.raises(NonIntegralParameterError):
        QRTParams(5, 2, 0)
    with pytest.raises(NonIntegralParameterError):
        QRTParams(5, -1, 1)


def test_good_reduction_away_from_singular_points():
    # >= 1000 random states per prime, fixed seed
    rng = random.Random(2024)
    for p in (3, 5, 7, 11):
        params = build_dp2_params(p, -8, 2, 2)
        done = 0
        while done < 1000:
            num = rng.randint(-200, 200)
            den = rng.randint(1, 60)
            if den % p == 0:
                continue
            x = Fraction(num, den)
            if reduce_mod(x, p).residue in (1, p - 1):
                continue
            y = Fraction(rng.randint(-200, 200), den)
            n = rng.randint(0, 3 * p)
            over_q = dp2_step(x, y, n, params)
            over_fp = dp2_step(reduce_mod(x, p), reduce_mod(y, p), n, params)
            assert (reduce_mod(over_q[0], p), reduce_mod(over_q[1], p)) == over_fp
            done += 1
