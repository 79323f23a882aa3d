"""Seven-case evolution, orbits, and period detection."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dp2fp import (
    FpProj,
    FpState,
    TauParams,
    build_dp2_params,
    detect_period,
    dp2_fp_orbit,
    dp2_fp_pattern,
    iterate_dp2_fp,
    reduced_solution,
)
from dp2fp.errors import InfiniteInitialError, UndefinedCaseError
from dp2fp.fpdynamics import _seven_cases

TAU5 = dict(p=5, a=-8, delta=2, z0=2)


def proj(p, r):
    return FpProj(p, r)


def seq(p, *values):
    return [FpProj.infinity(p) if v == "inf" else proj(p, v) for v in values]


def test_case_one_example():
    params = build_dp2_params(**TAU5)
    out = dp2_fp_pattern(FpState(proj(5, 4), proj(5, 2), 2), params)
    assert list(out.emitted) == seq(5, 3)
    assert out.next_state == FpState(proj(5, 2), proj(5, 3), 3)


def test_case_two_example():
    params = build_dp2_params(**TAU5)
    out = dp2_fp_pattern(FpState(proj(5, 3), proj(5, 1), 4), params)
    assert list(out.emitted) == seq(5, "inf", 4, 2)
    assert out.next_state == FpState(proj(5, 4), proj(5, 2), 7)


def test_case_four_example():
    params = build_dp2_params(5, -2, 2, 2)
    for t in range(5):
        out = dp2_fp_pattern(FpState(proj(5, t), proj(5, 1), 1), params)
        expected_exit = (Fraction(1 + 2 * t) / 2)
        from dp2fp import reduce_proj
        assert list(out.emitted) == \
            seq(5, "inf", 4, "inf", 1, "inf", 4) + [reduce_proj(expected_exit, 5)]


def test_case_one_includes_zero():
    # 1 - u^2 = 1 at u = 0: the generic step applies there
    params = build_dp2_params(**TAU5)
    out = dp2_fp_pattern(FpState(proj(5, 2), proj(5, 0), 0), params)
    assert len(out.emitted) == 1
    assert not out.emitted[0].is_infinity


def test_case_one_zero_coefficient_branches():
    params = build_dp2_params(**TAU5)
    # u = 1 with alpha_3 = 0 exactly: single regular step
    out = dp2_fp_pattern(FpState(proj(5, 2), proj(5, 1), 3), params)
    assert len(out.emitted) == 1
    from dp2fp import reduce_proj
    assert out.emitted[0] == reduce_proj(params.beta(3) / 2 - 2, 5)
    # u = p-1 with beta_0 = 0 exactly
    out = dp2_fp_pattern(FpState(proj(5, 2), proj(5, 4), 0), params)
    assert len(out.emitted) == 1
    assert out.emitted[0] == reduce_proj(params.alpha(0) / 2 - 2, 5)


def test_infinite_inputs_rejected():
    params = build_dp2_params(**TAU5)
    with pytest.raises(InfiniteInitialError):
        FpState(FpProj.infinity(5), proj(5, 1), 0)
    with pytest.raises(InfiniteInitialError):
        dp2_fp_pattern(FpState(proj(5, 1), FpProj.infinity(5), 0), params)
    with pytest.raises(InfiniteInitialError):
        dp2_fp_orbit(FpProj.infinity(5), proj(5, 1), 5, params)


def test_undefined_case_is_reported_not_patched():
    # p | a + delta with a != -delta exactly: the five-step pattern would
    # divide by zero; the engine refuses rather than emitting a guess.
    params = build_dp2_params(3, -8, 2, 2)
    n = next(i for i in range(3)
             if params.alpha(i) != 0 and params.beta(i + 2) == 0)
    with pytest.raises(UndefinedCaseError):
        dp2_fp_pattern(FpState(proj(3, 0), proj(3, 1), n), params)


def test_orbit_row_p3():
    tp = TauParams(N=3, lam=Fraction(1))
    params = build_dp2_params(3, tp.a, tp.delta, tp.z0)
    row = reduced_solution(tp, 3, 9)
    assert row == seq(3, 1, 2, "inf", 1, 2, "inf", 1, 2, "inf")
    # continuation from the first adjacent finite pair matches the row
    cont = list(islice(iterate_dp2_fp(row[0], row[1], params, start_n=2), 8))
    assert cont == row[1:]


def test_orbit_row_p7():
    tp = TauParams(N=3, lam=Fraction(1))
    params = build_dp2_params(7, tp.a, tp.delta, tp.z0)
    row = reduced_solution(tp, 7, 14)
    assert row == seq(7, 1, "inf", 6, 5, 1, "inf", 6, 1, "inf", 6, 5, 1, "inf", 6)
    start = next(i for i in range(len(row) - 1)
                 if not row[i].is_infinity and not row[i + 1].is_infinity)
    cont = list(islice(iterate_dp2_fp(row[start], row[start + 1], params,
                                      start_n=start + 2), len(row) - start - 1))
    assert cont == row[start + 1:]


def test_orbit_row_p11_via_reduction_path():
    # the p = 11 row begins at infinity, so it is produced by reduction and
    # compared against the pattern continuation from a finite pair
    tp = TauParams(N=3, lam=Fraction(1))
    params = build_dp2_params(11, tp.a, tp.delta, tp.z0)
    row = reduced_solution(tp, 11, 22)
    assert row[:11] == seq(11, "inf", 1, 6, 1, "inf", 10, "inf", 1, 0, 2, 10)
    assert row[11:] == row[:11]
    start = next(i for i in range(len(row) - 1)
                 if not row[i].is_infinity and not row[i + 1].is_infinity)
    assert start == 1
    cont = list(islice(iterate_dp2_fp(row[start], row[start + 1], params,
                                      start_n=start + 2), len(row) - start - 1))
    assert cont == row[start + 1:]


def test_orbit_prefix_and_truncation():
    params = build_dp2_params(5, 4, 2, 2)
    full = dp2_fp_orbit(proj(5, 3), proj(5, 2), 12, params)
    assert len(full) == 12
    assert full[:4] == dp2_fp_orbit(proj(5, 3), proj(5, 2), 4, params)
    assert full[0] == proj(5, 2)


def test_detect_period_tau_orbits():
    tp = TauParams(N=3, lam=Fraction(1))
    for p in (3, 5, 7, 11):
        params = build_dp2_params(p, tp.a, tp.delta, tp.z0)
        row = reduced_solution(tp, p, 2 * p)
        start = next(i for i in range(len(row) - 1)
                     if not row[i].is_infinity and not row[i + 1].is_infinity)
        gen = iterate_dp2_fp(row[start], row[start + 1], params,
                             start_n=start + 2)
        assert detect_period(gen, p) == p


def test_detect_period_constant_sequence():
    import itertools
    constant = itertools.repeat(FpProj(5, 2))
    assert detect_period(constant, 5) == 1


def test_detect_period_two_cycle():
    import itertools
    two = itertools.cycle([FpProj(5, 1), FpProj(5, 3)])
    assert detect_period(two, 5) == 2


def test_case_totality_by_enumeration():
    """Every finite (u_prev, u_cur, n) state dispatches to exactly one case
    for clean parameter sets at p = 3, 5, 7."""
    SETS = {
        3: [(-2, 2, 2), (2, 2, 2), (6, 2, 2)],
        5: [(6, 2, 2), (-2, 2, 2), (4, 2, 2)],
        7: [(-8, 2, 2), (2, 2, 2), (4, 2, 2)],
    }
    for p, sets in SETS.items():
        for (a, d, z0) in sets:
            params = build_dp2_params(p, a, d, z0)
            for t in range(p):
                for u in range(p):
                    for n in range(p):
                        out = dp2_fp_pattern(
                            FpState(proj(p, t), proj(p, u), n), params)
                        assert len(out.emitted) in (1, 3, 5, 7)
                        assert not out.next_state.u_prev.is_infinity


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
def test_seven_case_map_is_a_bijection_of_finite_states(p):
    # One step from each finite state (u_{n-1}, u_n, n mod p) lands on the
    # next finite state; over all p^3 states no two land on the same one.
    kinds = [(-2, 2, 3), (2, 2, 3)]          # a = -delta, a = delta
    if p >= 5:
        kinds.append((1, 2, 3))               # a + delta, a - delta units
    for a, delta, z0 in kinds:
        step = _seven_cases(build_dp2_params(p, a, delta, z0))
        images = set()
        for n in range(p):
            for t in range(p):
                for u in range(p):
                    values = (t, u) + step(t, u, n)
                    images.add((values[-2], values[-1],
                                (n + len(values) - 2) % p))
        assert len(images) == p ** 3
        assert all(t is not None and u is not None for t, u, _ in images)


@st.composite
def orbit_instances(draw):
    """(p, a, delta, z0, u0, u1) at p <= 31 with delta a unit, outside the
    UNDEFINED_CASE regime (p | a + delta or p | a - delta without exact
    equality)."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    delta = draw(st.integers(1, p - 1))
    a = draw(st.one_of(st.integers(-2 * p, 2 * p),
                       st.sampled_from((delta, -delta))))
    assume((a + delta) % p or a == -delta)
    assume((a - delta) % p or a == delta)
    z0 = draw(st.integers(-2 * p, 2 * p))
    u0, u1 = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    return p, a, delta, z0, u0, u1


@settings(max_examples=150, deadline=None, database=None)
@example((13, 7, 10, 10, 3, 5))
@given(orbit_instances())
def test_detect_period_is_least_period_after_first_state_repeat(instance):
    p, a, delta, z0, u0, u1 = instance
    params = build_dp2_params(p, a, delta, z0)
    period = detect_period(iterate_dp2_fp(u0, u1, params), p)
    # index of the first repeat of a finite state (u_{k-1}, u_k, k mod p)
    orbit = iterate_dp2_fp(u0, u1, params)
    values, seen = [next(orbit)], set()
    while True:
        values.append(next(orbit))
        k = len(values) - 1
        pair = values[k - 1:]
        if pair[0].is_infinity or pair[1].is_infinity:
            continue
        state = (pair[0].residue, pair[1].residue, k % p)
        if state in seen:
            break
        seen.add(state)
    values += islice(orbit, 3 * period)
    window = range(k, k + 2 * period)
    assert all(values[j + period] == values[j] for j in window)
    for d in range(1, period):
        if period % d == 0:
            assert any(values[j + d] != values[j] for j in window)
