"""Independent checks for dp2fp outputs.

Nothing here imports dp2fp.  Every expected value is recomputed from the
paper's case table and closed forms with plain integers mod p, or from exact
rational orbits, so a check never compares the program against itself.

Projective values are ints in 0..p-1, with ``None`` for the point at
infinity.  CLI strings are turned into that form by ``parse_proj``.
"""

from __future__ import annotations

from fractions import Fraction

INF = None


def parse_proj(text: str):
    return INF if text == "inf" else int(text)


def residue(x, p: int) -> int:
    """Reduce a p-integral rational mod p."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not p-integral at p={p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def reduce_proj(x, p: int):
    """Projective reduction: residue when p-integral, else infinity."""
    x = Fraction(x)
    if x.denominator % p == 0:
        return INF
    return x.numerator * pow(x.denominator, -1, p) % p


class Dp2Residues:
    """dP-II coefficients mod p for integer or rational (a, delta, z0).

    alpha_n = (n delta + z0 + a)/2 and beta_n = (-n delta - z0 + a)/2.  With
    delta a unit the period-p tables place an exact zero exactly where the
    residue vanishes, so 'alpha_n is an exact zero' is 'alpha_n = 0 mod p'.
    """

    def __init__(self, p: int, a, delta, z0):
        self.p = p
        self.a_exact, self.d_exact = Fraction(a), Fraction(delta)
        self.a, self.d, self.z0 = (residue(a, p), residue(delta, p),
                                   residue(z0, p))
        if self.d == 0:
            raise ValueError("delta must be a unit at p")
        self.half = pow(2, -1, p)

    def alpha(self, n: int) -> int:
        return (n * self.d + self.z0 + self.a) * self.half % self.p

    def beta(self, n: int) -> int:
        return (-n * self.d - self.z0 + self.a) * self.half % self.p

    def inv(self, x: int) -> int:
        return pow(x % self.p, -1, self.p)


def seven_case_step(c: Dp2Residues, t: int, u: int, n: int) -> list:
    """Values u_{n+1}, ..., emitted from the state (u_{n-1}, u_n) = (t, u).

    The paper's case table: one regular step, or a confined excursion
    through infinity of length 3, 5 or 7 that leaves at a closed-form value
    affine in t.
    """
    p, a, d = c.p, c.a, c.d
    if u == 1 and c.alpha(n):
        if c.beta(n + 2):
            ex = ((2 * c.alpha(n) * t + 2 * d * c.beta(n + 1) + (2 - d) * a)
                  * c.inv(2 * c.beta(n + 2)))
            return [INF, p - 1, ex % p]
        if c.a_exact != -c.d_exact:
            ex = -(a * d - (a - d) * t) * c.inv(a + d)
            return [INF, p - 1, INF, 1, ex % p]
        return [INF, p - 1, INF, 1, INF, p - 1, (1 + 2 * t) * c.half % p]
    if u == p - 1 and c.beta(n):
        if c.alpha(n + 2):
            ex = ((a * (d - 2) - 2 * d * c.alpha(n + 1) + 2 * c.beta(n) * t)
                  * c.inv(2 * c.alpha(n + 2)))
            return [INF, 1, ex % p]
        if c.a_exact != c.d_exact:
            ex = (a * d + (a + d) * t) * c.inv(a - d)
            return [INF, 1, INF, p - 1, ex % p]
        return [INF, 1, INF, p - 1, INF, 1, (2 * t - 1) * c.half % p]
    total = -t
    if c.alpha(n):
        total += c.alpha(n) * c.inv(1 - u)
    if c.beta(n):
        total += c.beta(n) * c.inv(1 + u)
    return [total % p]


def reference_orbit(c: Dp2Residues, t: int, u: int, n: int,
                    count: int) -> list:
    """u_n, u_{n+1}, ... (count values) from the state (t, u) at time n."""
    out = [u]
    while len(out) < count:
        emitted = seven_case_step(c, t, u, n)
        out.extend(emitted)
        t = emitted[-2] if len(emitted) > 1 else u
        u, n = emitted[-1], n + len(emitted)
    return out[:count]


def least_period(seq: list, n0: int, p: int, finite_states_only: bool = True):
    """Least period of an eventually periodic orbit, or None if the given
    values show no repeated state.

    ``seq[k]`` is u_{n0+k}.  The state hashed is (u_{k-1}, u_k, n mod p).
    With ``finite_states_only`` only pairs of finite values are hashed:
    those are the true states of the seven-case dynamics.  A pair holding
    infinity does not fix the future, since an excursion's exit depends on
    the value before it; hashing such pairs too (``False``) reproduces a
    cycle finder that can stop at a spurious repeat.
    """
    seen = {}
    for k in range(1, len(seq)):
        prev, cur = seq[k - 1], seq[k]
        if finite_states_only and (prev is INF or cur is INF):
            continue
        state = (prev, cur, (n0 + k) % p)
        if state in seen:
            k1 = seen[state]
            cycle = seq[k1:k]
            length = len(cycle)
            for d in range(1, length + 1):
                if length % d == 0 and all(cycle[i] == cycle[(i + d) % length]
                                           for i in range(length)):
                    return d
        seen[state] = k
    return None


def first_state_repeat(seq: list, n0: int, p: int):
    """Index k at which a finite state of ``seq`` first repeats, or None."""
    seen = set()
    for k in range(1, len(seq)):
        prev, cur = seq[k - 1], seq[k]
        if prev is INF or cur is INF:
            continue
        state = (prev, cur, (n0 + k) % p)
        if state in seen:
            return k
        seen.add(state)
    return None


def recurrence_failures(c: Dp2Residues, seq: list, n0: int) -> list:
    """Indices n where a triple of finite values breaks
    (u_{n+1} + u_{n-1}) (1 - u_n^2) = z_n u_n + a  (mod p)."""
    p = c.p
    bad = []
    for k in range(1, len(seq) - 1):
        t, u, v = seq[k - 1], seq[k], seq[k + 1]
        if t is INF or u is INF or v is INF:
            continue
        n = n0 + k
        z = n * c.d + c.z0
        if ((v + t) * (1 - u * u) - z * u - c.a) % p:
            bad.append(n)
    return bad


def orbit_mismatch(c: Dp2Residues, u0: int, seq: list):
    """First place where ``seq`` = u_1, u_2, ... leaves the case table, or
    None.  From each state the expected emission is the regular step or the
    paper's excursion with its closed-form exit; an excursion must start
    exactly after u = 1 with alpha_n != 0 or u = p-1 with beta_n != 0."""
    t, k = u0, 0
    while k < len(seq) - 1:
        u, n = seq[k], k + 1
        if u is INF:
            return (n, "orbit reached infinity outside an excursion")
        want = seven_case_step(c, t, u, n)
        got = seq[k + 1:k + 1 + len(want)]
        if got != want[:len(got)]:
            kind = "step" if len(want) == 1 else f"{len(want)}-step excursion"
            return (n, f"{kind} from (t={t}, u={u}): want {want}, got {got}")
        t = want[-2] if len(want) > 1 else u
        k += len(want)
    return None


def dp2_case_table(c: Dp2Residues, point: str, t: int, n: int):
    """(m, image_x, image_y) of the confined excursion from x = +-1 with
    companion residue t at time n, from the paper's case table."""
    p = c.p
    if point == "+1":
        if not c.alpha(n):
            return 1, (c.beta(n) * c.half - t) % p, 1
    elif not c.beta(n):
        return 1, (c.alpha(n) * c.half - t) % p, p - 1
    u = 1 if point == "+1" else p - 1
    emitted = seven_case_step(c, t, u, n)
    return len(emitted), emitted[-1], emitted[-2]


def check_dp2_scan(params: dict, result: dict) -> list:
    """Problems in an ``agr-scan --map dp2`` result (empty when correct)."""
    p = params["p"]
    c = Dp2Residues(p, Fraction(params["a"]), Fraction(params["delta"]),
                    Fraction(params["z0"]))
    problems = []
    reports = result["reports"]
    if len(reports) != 2 * p * p:
        problems.append(f"{len(reports)} records, want {2 * p * p}")
    for rec in reports:
        key = (rec["point"], rec["y_residue"], rec["n"])
        if rec["status"] != "CONFINED":
            problems.append(f"{key} status {rec['status']}")
            continue
        m, ix, iy = dp2_case_table(c, rec["point"], int(rec["y_residue"]),
                                   rec["n"])
        got = (rec["m"], parse_proj(rec["image_x"]),
               parse_proj(rec["image_y"]))
        if got != (m, ix, iy):
            problems.append(f"{key} (m, image) {got}, want {(m, ix, iy)}")
    if result["has_agr"] is not True:
        problems.append("has_agr is not true")
    if result["ambiguous"] is not False:
        problems.append("ambiguous is not false")
    return problems


def qrt_deep_orbit(p: int, gamma: int, a: int, y_res: int, steps: int,
                   depth: int) -> list:
    """Exact rational orbit of (x, y) -> ((a x + 1)/(x^gamma y), x) from the
    lift x = e, y = y_res (+ e at the double zero y_res = 0), e = p**depth.
    Returns the projective reductions of (x_j, y_j) for j = 1..steps, with
    (INF, INF) from the first step the orbit divides by zero."""
    e = Fraction(p) ** depth
    x, y = e, Fraction(y_res) + (e if y_res == 0 else 0)
    out = []
    for _ in range(steps):
        den = x ** gamma * y
        if den == 0:
            out.extend([(INF, INF)] * (steps - len(out)))
            break
        x, y = (a * x + 1) / den, x
        out.append((reduce_proj(x, p), reduce_proj(y, p)))
    return out


QRT_DEPTH = 40


def check_qrt_scan(params: dict, result: dict) -> list:
    """Problems in an ``agr-scan --map qrt`` result (empty when correct)."""
    p, gamma, a = params["p"], params["gamma"], int(Fraction(params["a"]))
    problems = []
    reports = result["reports"]
    if len(reports) != p:
        problems.append(f"{len(reports)} records, want {p}")
    for rec in reports:
        y_res = int(rec["y_residue"])
        confined = rec["status"] == "CONFINED"
        if gamma >= 3:
            if confined:
                problems.append(f"y={y_res} CONFINED at gamma={gamma}")
            continue
        if not confined:
            problems.append(f"y={y_res} status {rec['status']}")
            continue
        m = rec["m"]
        image = (parse_proj(rec["image_x"]), parse_proj(rec["image_y"]))
        orbit = qrt_deep_orbit(p, gamma, a, y_res, m, QRT_DEPTH)
        if orbit[-1] != image:
            problems.append(f"y={y_res} deep lift gives {orbit[-1]} at m={m}, "
                            f"reported {image}")
        for j, pair in enumerate(orbit[:-1], start=1):
            if INF not in pair:
                problems.append(f"y={y_res} finite at step {j} < m={m}")
                break
        if gamma == 2:
            want = ((8, 0, 0) if y_res == 0 else
                    (3, pow(a * a * y_res, -1, p), 0))
            if (m,) + image != want:
                problems.append(f"y={y_res} (m, image) {(m,) + image}, "
                                f"closed form {want}")
    if gamma <= 2 and result["has_agr"] is not True:
        problems.append("has_agr is not true")
    return problems


def check_evolve(params: dict, result: dict) -> list:
    """Problems in an ``evolve`` result (empty when correct)."""
    p = params["p"]
    c = Dp2Residues(p, Fraction(params["a"]), Fraction(params["delta"]),
                    Fraction(params["z0"]))
    u0 = params["u0"] % p
    seq = [parse_proj(v) for v in result["sequence"]]
    problems = []
    if len(seq) != params["steps"]:
        problems.append(f"{len(seq)} values, want {params['steps']}")
    bad = recurrence_failures(c, [u0] + seq, 0)
    if bad:
        problems.append(f"recurrence fails at n={bad[:5]}")
    miss = orbit_mismatch(c, u0, seq)
    if miss:
        problems.append(f"n={miss[0]}: {miss[1]}")
    period = least_period(seq, 1, p)
    if period is None:
        problems.append("sequence too short to show a repeated state")
    else:
        problems += period_problems(result["period"], period,
                                    least_period(seq, 1, p, False))
    return problems


FAULT = "detect_period fault: "


def period_problems(reported, period, spurious) -> list:
    """The period check.  A wrong period that equals the one found by also
    hashing pairs that hold infinity is marked as the known detect_period
    fault, so the run can count it as failed rather than as incorrect."""
    if reported == period:
        return []
    prefix = FAULT if reported == spurious else ""
    return [f"{prefix}period {reported}, cycle finder {period}"]


# Published reduced solutions for N = 3, lambda = 1 (one period of the
# sequence, the period, and the two condition diagnostics).
PUBLISHED_TAU_ROWS = {
    3: (["1", "2", "inf"], 3, ["inf", "inf"]),
    5: (["4", "2", "3", "1", "inf"], 5, ["inf", "4"]),
    7: (["1", "inf", "6", "5", "1", "inf", "6"], 7, ["inf", "0"]),
    11: (["inf", "1", "6", "1", "inf", "10", "inf", "1", "0", "2", "10"],
         11, ["0", "7"]),
}

PERIOD_SEARCH_CAP = 200_000


def tau_periods(c: Dp2Residues, seq: list):
    """Least period of the seven-case orbit continued from the first pair
    of finite values of a reduced solution u_1, u_2, ..., and the period a
    finder that also hashes pairs holding infinity reports on that orbit
    ((None, None) if there is no such pair)."""
    p = c.p
    for i in range(len(seq) - 1):
        if seq[i] is not INF and seq[i + 1] is not INF:
            break
    else:
        return None, None
    count = 4 * p + 8
    while True:
        orbit = reference_orbit(c, seq[i], seq[i + 1], i + 2, count)
        period = least_period(orbit, i + 2, p)
        if period is not None or count > PERIOD_SEARCH_CAP:
            return period, least_period(orbit, i + 2, p, False)
        count *= 2


def check_tau_orbit(params: dict, result: dict) -> list:
    """Problems in a ``tau-orbit`` result (empty when correct)."""
    p, N, lam = params["p"], params["N"], Fraction(params["lam"])
    seq_text = result["sequence"]
    count = 2 * p if params["count"] is None else params["count"]
    problems = []
    if len(seq_text) != count:
        problems.append(f"{len(seq_text)} values, want {count}")
    if (N, lam) == (3, 1) and p in PUBLISHED_TAU_ROWS:
        cycle, period, diag = PUBLISHED_TAU_ROWS[p]
        want = (cycle * (count // len(cycle) + 1))[:count]
        if seq_text != want:
            problems.append(f"sequence {seq_text} differs from the table")
        if result["period"] != period:
            problems.append(f"period {result['period']}, table {period}")
        if result["cond_diag"] != diag:
            problems.append(f"diagnostics {result['cond_diag']}, table {diag}")
        return problems
    c = Dp2Residues(p, Fraction(-2 * (N + 1)) / lam, 2 / lam, 2 / lam)
    seq = [parse_proj(v) for v in seq_text]
    bad = recurrence_failures(c, seq, 1)
    if bad:
        problems.append(f"recurrence fails at n={bad[:5]}")
    problems += period_problems(result["period"], *tau_periods(c, seq))
    return problems
