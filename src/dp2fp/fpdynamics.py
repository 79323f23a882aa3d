"""Direct evolution of dP-II over P1(F_p) through the seven confined cases.

Between singularities the recurrence is evaluated with plain field
arithmetic (case 1).  When the dependent variable hits 1 or p-1 with a
nonzero coefficient, the whole confined excursion is emitted at once as a
fixed pattern of intermediate values ending in the closed-form exit value
(cases 2 through 7).  Which pattern applies is decided by exact zero tests
on the coefficients, never by residues alone.

The engine computes on plain int residues in 0..p-1, with ``None`` for the
point at infinity (the encoding of ``FpProj.residue``).  ``dp2_fp_pattern``,
``iterate_dp2_fp`` and ``dp2_fp_orbit`` are ``FpProj`` views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import (
    InfiniteInitialError,
    NoPeriodFoundError,
    UndefinedCaseError,
)
from .maps import DP2Params
from .padic import FpProj, reduce_mod


@dataclass(frozen=True)
class FpState:
    """The pair (u_{n-1}, u_n) plus the time index n of u_n.

    u_prev is finite by invariant: every way the variable reaches infinity
    is internal to one of the emitted patterns.
    """

    u_prev: FpProj
    u_cur: FpProj
    n: int

    def __post_init__(self):
        if self.u_prev.is_infinity:
            raise InfiniteInitialError("u_{n-1} = inf is not a valid state")


@dataclass(frozen=True)
class PatternOutput:
    """Values u_{n+1} .. u_{n+m} plus the state positioned after them."""

    emitted: tuple
    next_state: FpState


def _residue(value, p: int):
    """The residue of an ``FpProj`` or an int, ``None`` for infinity."""
    if isinstance(value, FpProj):
        if value.p != p:
            raise ValueError("projective point has the wrong modulus")
        return value.residue
    return None if value is None else int(value) % p


def _seven_cases(params: DP2Params):
    """The seven-case step for one parameter set, as ``step(t, u, n)``.

    ``step`` returns the values u_{n+1} .. u_{n+m} emitted from the state
    (u_{n-1}, u_n) = (t, u), where t and u are residues in 0..p-1; the
    emitted values are residues, ``None`` for infinity.  The exact-zero
    dispatch reads ``DP2Params.alpha_units``/``beta_units`` (``None`` at an
    exact zero); the exact tests a = -delta and a = delta are taken here,
    once and not per step, and ``UndefinedCaseError`` is raised only when a
    state actually reaches the uncovered five-step pattern.
    """
    p = params.p
    alpha, beta = params.alpha_units, params.beta_units
    a = reduce_mod(params.a, p).residue
    d = reduce_mod(params.delta, p).residue
    a_plus_d, a_minus_d = (a + d) % p, (a - d) % p
    a_is_minus_d = params.a == -params.delta
    a_is_d = params.a == params.delta
    half = (p + 1) // 2
    m1 = p - 1

    def step(t: int, u: int, n: int) -> tuple:
        i = n % p
        alpha_n, beta_n = alpha[i], beta[i]
        if u == 1 and alpha_n is not None:
            beta_n2 = beta[(n + 2) % p]
            if beta_n2 is not None:
                beta_n1 = beta[(n + 1) % p] or 0
                exit_val = ((2 * alpha_n * t + 2 * d * beta_n1 + (2 - d) * a)
                            * pow(2 * beta_n2, -1, p))
                return (None, m1, exit_val % p)
            if not a_is_minus_d:
                if not a_plus_d:
                    raise UndefinedCaseError(
                        "a + delta reduces to zero while a != -delta exactly; "
                        "the five-step pattern is outside the covered cases")
                exit_val = -(a * d - a_minus_d * t) * pow(a_plus_d, -1, p)
                return (None, m1, None, 1, exit_val % p)
            return (None, m1, None, 1, None, m1, (1 + 2 * t) * half % p)
        if u == m1 and beta_n is not None:
            alpha_n2 = alpha[(n + 2) % p]
            if alpha_n2 is not None:
                alpha_n1 = alpha[(n + 1) % p] or 0
                exit_val = ((a * (d - 2) - 2 * d * alpha_n1 + 2 * beta_n * t)
                            * pow(2 * alpha_n2, -1, p))
                return (None, 1, exit_val % p)
            if not a_is_d:
                if not a_minus_d:
                    raise UndefinedCaseError(
                        "a - delta reduces to zero while a != delta exactly; "
                        "the five-step pattern is outside the covered cases")
                exit_val = (a * d + a_plus_d * t) * pow(a_minus_d, -1, p)
                return (None, 1, None, m1, exit_val % p)
            return (None, 1, None, m1, None, 1, (2 * t - 1) * half % p)
        # Case 1.  u = 0 is generic: 1 - u^2 = 1 there, so the formula is
        # regular even though the listed range starts at 2.
        total = -t
        if alpha_n is not None:
            total += alpha_n * pow(1 - u, -1, p)
        if beta_n is not None:
            total += beta_n * pow(1 + u, -1, p)
        return (total % p,)

    return step


def dp2_fp_pattern(state: FpState, params: DP2Params) -> PatternOutput:
    """Emit the confined continuation of the orbit from one state.

    Case dispatch (exact coefficient zero tests throughout):

      1. generic u (including 0), or u = 1 with alpha_n = 0, or u = p-1
         with beta_n = 0: one step of the recurrence, terms with an exactly
         zero coefficient dropped;
      2. u = 1, alpha_n != 0, beta_{n+2} != 0: three steps;
      3. u = 1, alpha_n != 0, beta_{n+2} = 0, a != -delta: five steps;
      4. as 3 but a = -delta: seven steps;
      5-7. the mirror images at u = p-1 driven by beta_n, alpha_{n+2} and
         the sign of a - delta.
    """
    p = params.p
    if state.u_cur.is_infinity:
        raise InfiniteInitialError("evolution cannot start at u_n = inf")
    step = _seven_cases(params)
    emitted = tuple(FpProj(p, r) for r in step(
        _residue(state.u_prev, p), _residue(state.u_cur, p), state.n))
    m = len(emitted)
    prev = emitted[-2] if m >= 2 else state.u_cur
    next_state = FpState(u_prev=prev, u_cur=emitted[-1], n=state.n + m)
    return PatternOutput(emitted=emitted, next_state=next_state)


def iterate_dp2_residues(u0, u1, params: DP2Params, start_n: int = 1):
    """Infinite generator of u_1, u_2, ... as residues (``None`` for
    infinity) from the finite seeds u_0, u_1 (``FpProj`` or int)."""
    p = params.p
    t, u = _residue(u0, p), _residue(u1, p)
    if t is None or u is None:
        raise InfiniteInitialError("orbit seeds must both be finite")
    step = _seven_cases(params)
    n = start_n
    yield u
    while True:
        emitted = step(t, u, n)
        yield from emitted
        m = len(emitted)
        t = emitted[-2] if m >= 2 else u
        u = emitted[-1]
        n += m


def iterate_dp2_fp(u0, u1, params: DP2Params, start_n: int = 1):
    """Infinite generator of u_1, u_2, ... from finite seeds u_0, u_1."""
    p = params.p
    for r in iterate_dp2_residues(u0, u1, params, start_n):
        yield FpProj(p, r)


def dp2_fp_orbit(u0, u1, steps: int, params: DP2Params) -> list:
    """The values u_1 .. u_steps given (u_0, u_1)."""
    if steps < 1:
        return []
    return list(islice(iterate_dp2_fp(u0, u1, params), steps))


def detect_period(values, p: int) -> int:
    """Least period of a seven-case orbit u_1, u_2, ... over P1(F_p).

    The values are ``FpProj`` points or residues with ``None`` for
    infinity.  Only pairs of consecutive finite values are hashed, together
    with the time index mod p: those are the true states of the dynamics.
    A pair holding infinity does not fix the future, since an excursion's
    exit value depends on the value before it.  Once a state repeats, the
    cycle length is refined to the least divisor that already repeats the
    values (a constant orbit has period 1, not p).  There are at most p^3
    finite states and at most seven values from one to the next, so a
    longer search means the sequence is not such an orbit.
    """
    cap = 7 * p ** 3 + 7
    seen: dict = {}
    history: list = []
    prev = None
    for k, value in enumerate(values):
        value = _residue(value, p)
        history.append(value)
        if prev is not None and value is not None:
            state = (prev, value, k % p)
            if state in seen:
                k1 = seen[state]
                cycle_len = k - k1
                cycle = history[k1:k]
                for d in range(1, cycle_len + 1):
                    if cycle_len % d == 0 and all(
                            cycle[i] == cycle[(i + d) % cycle_len]
                            for i in range(cycle_len)):
                        return d
                return cycle_len
            seen[state] = k
        prev = value
        if k > cap:
            raise NoPeriodFoundError(
                f"no state repeat within {cap} steps; generator misbehaving")
    raise NoPeriodFoundError("sequence ended before a state repeated")
