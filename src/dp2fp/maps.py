"""The dP-II system map, the one-parameter QRT-type family, and the
period-p dP-II coefficients with exact zero placement.

The step functions are generic over the arithmetic carrier: the same
formula runs on exact rationals (orbits over Q), on ``FpElem`` (the reduced
map), and on ``EpsRational`` (perturbed orbits for confinement).  Carrier
dispatch happens through the operators.  Coefficients and constants stay
int or Fraction scalars: over Q they are ordinary operands, ``FpElem``
reduces them mod p, and ``EpsRational`` combines them with its integer
pair directly, without making a field element of them.  On
``EpsRational`` the dP-II coefficient sum alpha/(1 - x) + beta/(1 + x) is
one kernel call, ``epsfield.dp2_coefficient_sum``, which needs no gcd; the
other carriers run the formula through their operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .epsfield import EpsRational, dp2_coefficient_sum
from .errors import (
    DivisionByZeroError,
    Dp2Error,
    NoExactZeroError,
    NonIntegralParameterError,
)
from .padic import check_odd_prime, reduce_mod, vp


def _check_p_integral(name, value, p):
    value = Fraction(value)
    if vp(value, p) < 0:
        raise NonIntegralParameterError(
            f"parameter {name}={value} has negative valuation at p={p}")
    return value


def _zero_shift(p: int, delta: Fraction, offset: Fraction) -> Fraction:
    """The shift that makes one of (i*delta + offset + shift*p) / 2,
    i = 0..p-1, exactly zero.

    When delta is a unit mod p, the zero sits at the class i0 of
    -offset/delta, and every other entry, (i - i0)*delta/2, is a unit.
    When delta = 0 (mod p), no shift works unless delta and the offset are
    both exactly zero.
    """
    if reduce_mod(delta, p).residue != 0:
        i0 = reduce_mod(-offset / delta, p).residue
        return -(i0 * delta + offset) / p
    if reduce_mod(offset, p).residue != 0:
        raise NoExactZeroError(
            "coefficient table admits no exact zero: delta = 0 (mod p) "
            f"and the offset {offset} is a unit")
    if delta == 0 and offset == 0:
        return Fraction(0)
    raise NoExactZeroError(
        "degenerate parameters: delta and the offset both vanish mod p but "
        "not exactly, so table entries cannot all be units or exact zeros")


@dataclass(frozen=True)
class DP2Params:
    """Prime, parameters (a, delta, z0), and the period-p coefficients

        alpha_n = (i*delta + z0 + a + n_alpha*p) / 2,
        beta_n = (-i*delta - z0 + a + n_beta*p) / 2,   i = n mod p.

    The shifts n_alpha and n_beta place an exact zero in each period, so
    every coefficient is an exact zero or a p-adic unit, with the residue
    of (n*delta + z0 + a)/2 resp. (-n*delta - z0 + a)/2.  ``alpha_units``
    and ``beta_units`` hold these residues for i = 0..p-1, ``None`` where
    the residue is zero, which is exactly where the coefficient is zero.
    """

    p: int
    a: Fraction
    delta: Fraction
    z0: Fraction
    n_alpha: Fraction
    n_beta: Fraction
    alpha_units: tuple = field(repr=False)
    beta_units: tuple = field(repr=False)

    def alpha(self, n: int) -> Fraction:
        return ((n % self.p) * self.delta + self.z0 + self.a
                + self.n_alpha * self.p) / 2

    def beta(self, n: int) -> Fraction:
        return (-(n % self.p) * self.delta - self.z0 + self.a
                + self.n_beta * self.p) / 2


def build_dp2_params(p, a, delta, z0) -> DP2Params:
    """Parameters with an exact zero placed in each period of alpha and beta.

    The shift n_alpha solves i*delta + z0 + a + n_alpha*p = 0 at the unique
    residue class i where that is possible; the beta shift does the same
    for -i*delta - z0 + a.  When delta reduces to zero no class works, and
    ``NoExactZeroError`` is raised unless a = delta = z0 = 0, where every
    coefficient is zero.
    """
    check_odd_prime(p)
    a = _check_p_integral("a", a, p)
    delta = _check_p_integral("delta", delta, p)
    z0 = _check_p_integral("z0", z0, p)
    n_alpha = _zero_shift(p, delta, z0 + a)
    n_beta = _zero_shift(p, -delta, a - z0)
    a_res, d_res, z_res = (reduce_mod(v, p).residue for v in (a, delta, z0))
    half = (p + 1) // 2
    alpha_units = tuple((i * d_res + z_res + a_res) * half % p or None
                        for i in range(p))
    beta_units = tuple((a_res - i * d_res - z_res) * half % p or None
                       for i in range(p))
    return DP2Params(p=p, a=a, delta=delta, z0=z0,
                     n_alpha=n_alpha, n_beta=n_beta,
                     alpha_units=alpha_units, beta_units=beta_units)


def dp2_step(x, y, n: int, params: DP2Params):
    """One application of the system map:

        x' = alpha_n/(1 - x) + beta_n/(1 + x) - y,   y' = x

    with the coefficients params.alpha(n) and params.beta(n), from a
    ``DP2Params`` or an ``AnchoredDP2Map``.  The carrier of (x, y) decides
    the arithmetic; on ``EpsRational`` the first two terms are
    ``dp2_coefficient_sum``, which gives the same value as the operators.
    x = +1 or -1 exactly in the carrier is a genuine singularity and
    raises ``DivisionByZeroError``.
    """
    alpha = params.alpha(n)
    beta = params.beta(n)
    try:
        if isinstance(x, EpsRational):
            x_next = dp2_coefficient_sum(x, alpha, beta) - y
        else:
            x_next = alpha / (1 - x) + beta / (1 + x) - y
    except ZeroDivisionError as exc:
        raise DivisionByZeroError(f"singular state x = {x}") from exc
    return x_next, x


def dp2_scalar_residual(u_prev, u, u_next, n: int, params) -> Fraction:
    """Defect of a triple against the scalar second-order recurrence

        u_{n+1} + u_{n-1} = (z_n u_n + a) / (1 - u_n^2),  z_n = delta*n + z0.

    Zero iff the triple satisfies the recurrence at time n.  Any object
    with ``a``, ``delta`` and ``z0`` attributes works as params.
    """
    u_prev, u, u_next = Fraction(u_prev), Fraction(u), Fraction(u_next)
    if u == 1 or u == -1:
        raise DivisionByZeroError(f"scalar recurrence undefined at u = {u}")
    z_n = Fraction(params.delta) * n + Fraction(params.z0)
    return u_next + u_prev - (z_n * u + Fraction(params.a)) / (1 - u * u)


@dataclass(frozen=True)
class QRTParams:
    """Parameters of the map (x, y) -> ((a*x + 1)/(x**gamma * y), x)."""

    p: int
    gamma: int
    a: int

    def __post_init__(self):
        check_odd_prime(self.p)
        if self.gamma < 0:
            raise NonIntegralParameterError("gamma must be a nonnegative integer")
        if not 1 <= self.a <= self.p - 1:
            raise NonIntegralParameterError(
                f"a must lie in 1..{self.p - 1} (got {self.a})")


def qrt_step(x, y, params: QRTParams):
    """((a*x + 1)/(x**gamma * y), x); exact zero of x or y is singular."""
    try:
        x_next = (params.a * x + 1) / (x ** params.gamma * y)
    except ZeroDivisionError as exc:
        raise DivisionByZeroError(f"singular state (x, y) = ({x}, {y})") from exc
    return x_next, x


class AnchoredDP2Map:
    """dP-II with coefficients affine in n, anchored at one time step.

    A confinement excursion spans several consecutive steps, and the pole
    cancellations that confine it need the exact relations

        alpha_{n+1} - alpha_n = delta/2,  beta_{n+1} - beta_n = -delta/2,
        alpha_n + beta_n = a

    to hold across the whole window.  The period-p coefficients of
    ``DP2Params`` satisfy them only inside one period: at the fold they
    jump by a multiple of p, which is invisible mod p but breaks the
    cancellation for shallow lifts (k = 1).  Anchoring the affine family
    at the window start with the dispatch-relevant zeros placed exactly
    restores the relations at every n while keeping every residue equal to
    that of ``DP2Params``.
    """

    kind = "dp2-window"

    def __init__(self, params: DP2Params, n0: int, alpha0: Fraction,
                 beta0: Fraction):
        self.params = params
        self.p = params.p
        self.n0 = n0
        self.alpha0 = alpha0
        self.beta0 = beta0
        self._alphas: dict[int, Fraction] = {}
        self._betas: dict[int, Fraction] = {}

    def alpha(self, n: int) -> Fraction:
        alpha = self._alphas.get(n)
        if alpha is None:
            alpha = self._alphas[n] = (self.alpha0
                                       + (n - self.n0) * self.params.delta / 2)
        return alpha

    def beta(self, n: int) -> Fraction:
        beta = self._betas.get(n)
        if beta is None:
            beta = self._betas[n] = (self.beta0
                                     - (n - self.n0) * self.params.delta / 2)
        return beta

    def step(self, x, y, n: int):
        return dp2_step(x, y, n, self)


def dp2_window_map(params: DP2Params, singular_value: int, n0: int) -> AnchoredDP2Map:
    """Anchor the affine coefficient family for a confinement window.

    The anchor pair (alpha0, beta0) keeps the sum exactly a and places an
    exact zero wherever the case dispatch at (singular_value, n0) tests
    one, mirroring which coefficients the confined patterns divide by.
    """
    a, delta = params.a, params.delta
    if singular_value == 1:
        if params.alpha(n0) == 0:
            alpha0, beta0 = Fraction(0), a
        elif params.beta(n0 + 2) == 0:
            alpha0, beta0 = a - delta, delta
        else:
            alpha0 = params.alpha(n0)
            beta0 = a - alpha0
    elif singular_value == -1:
        if params.beta(n0) == 0:
            alpha0, beta0 = a, Fraction(0)
        elif params.alpha(n0 + 2) == 0:
            alpha0, beta0 = -delta, a + delta
        else:
            alpha0 = params.alpha(n0)
            beta0 = a - alpha0
    else:
        raise ValueError("singular_value must be +1 or -1")
    p = params.p
    if (reduce_mod(alpha0, p) != reduce_mod(params.alpha(n0), p)
            or reduce_mod(beta0, p) != reduce_mod(params.beta(n0), p)):
        raise Dp2Error(f"internal: anchor ({alpha0}, {beta0}) at n = {n0} "
                       "does not reduce to the coefficient table")
    return AnchoredDP2Map(params, n0, alpha0, beta0)


class DP2Map:
    """Map-family wrapper handing dP-II to the confinement engine.

    Each anchored window map is built once per (singular value, n0) and
    shared by every run from that window, over all companion residues.
    """

    kind = "dp2"

    def __init__(self, params: DP2Params):
        self.params = params
        self.p = params.p
        self._windows: dict[tuple[int, int], AnchoredDP2Map] = {}

    def step(self, x, y, n: int):
        return dp2_step(x, y, n, self.params)

    def window_map(self, lift):
        """The anchored affine model for one confinement run."""
        s = lift.s
        if s != 1 and s != -1:
            return self
        key = (int(s), lift.n0)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = dp2_window_map(self.params, *key)
        return window

    def scan_points(self):
        """Singular residues x = 1 and x = p-1, every companion residue,
        every time step in one period."""
        p = self.p
        for s, label in ((1, "+1"), (-1, "-1")):
            for y_res in range(p):
                for n in range(p):
                    yield label, y_res, n, Fraction(s), Fraction(y_res), False


class QRTMap:
    """Map-family wrapper for the QRT-type family (autonomous)."""

    kind = "qrt"

    def __init__(self, params: QRTParams):
        self.params = params
        self.p = params.p

    def step(self, x, y, n: int):
        return qrt_step(x, y, self.params)

    def scan_points(self):
        """The singular residue x = 0 against every companion residue; the
        double zero perturbs both coordinates along the shared parameter."""
        p = self.p
        for y_res in range(p):
            yield "0", y_res, 0, Fraction(0), Fraction(y_res), y_res == 0
