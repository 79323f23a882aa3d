"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live).  Everything is exact: no tolerances anywhere.  Randomized
suites use the fixed seed recorded below.
"""

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dp2fp import (
    ConfinementStatus,
    CustomMap,
    DP2Map,
    FpProj,
    QRTMap,
    QRTParams,
    TauParams,
    agr_scan,
    build_dp2_params,
    degree_limit,
    dp2_fp_pattern,
    dp2_scalar_residual,
    dp2_step,
    laguerre,
    rational_u,
    reduce_mod,
    reduce_proj,
    sample_images,
    tau_det,
)
from dp2fp.cli import main
from dp2fp.errors import ZeroTauDenominatorError
from dp2fp.tau import det_fraction_free

SEED = 20250809

# Parameter sets per prime covering, at x = +1, the four dispatch cases
# (coefficient zero, both nonzero, zero with a != -delta, zero with
# a = -delta) and at x = -1 the three mirrored nontrivial cases.  Sets are
# chosen so every pattern denominator (a +/- delta where required) is an
# exact zero or a unit at p, keeping them inside the covered case table.
DP2_SETS = {
    3: [(-2, 2, 2), (2, 2, 2), (6, 2, 2), (-6, 2, 2), (6, 2, 4)],
    5: [(-2, 2, 2), (2, 2, 2), (4, 2, 2), (6, 2, 2), (4, 2, 4)],
    7: [(-8, 2, 2), (-2, 2, 2), (2, 2, 2), (4, 2, 2), (6, 4, 2)],
}

TABLE_ROWS = {
    3: (["1", "2", "inf"], 3, ["inf", "inf"]),
    5: (["4", "2", "3", "1", "inf"], 5, ["inf", "4"]),
    7: (["1", "inf", "6", "5", "1", "inf", "6"], 7, ["inf", "0"]),
    11: (["inf", "1", "6", "1", "inf", "10", "inf", "1", "0", "2", "10"],
         11, ["0", "7"]),
}


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def qrt_sweep():
    """All QRT scans for criterion 2 (and reused by criterion 7)."""
    t0 = time.time()
    results = {}
    for p in (3, 5, 7):
        for a in range(1, p):
            for gamma in (0, 1, 2, 3, 4):
                fam = QRTMap(QRTParams(p=p, gamma=gamma, a=a))
                results[(p, a, gamma)] = agr_scan(fam)
    return results, time.time() - t0


@pytest.fixture(scope="module")
def dp2_sweep():
    """All dP-II scans for criterion 3 (and reused by criteria 4 and 7)."""
    t0 = time.time()
    results = {}
    for p, sets in DP2_SETS.items():
        for triple in sets:
            params = build_dp2_params(p, *triple)
            results[(p, triple)] = (params, agr_scan(DP2Map(params)))
    return results, time.time() - t0


def test_criterion_1_table_reproduction(capsys):
    t0 = time.time()
    failures = []
    for p, (cycle, period, diag) in TABLE_ROWS.items():
        count = 2 * p
        code = main(["tau-orbit", "--p", str(p), "--N", "3", "--lambda", "1",
                     "--count", str(count), "--out", f"/tmp/acc1_{p}.json"])
        payload = json.loads(open(f"/tmp/acc1_{p}.json").read())
        result = payload["result"]
        expected_seq = (cycle * ((count // period) + 1))[:count]
        if code != 0:
            failures.append(f"p={p} exit {code}")
        if result["sequence"] != expected_seq:
            failures.append(f"p={p} sequence {result['sequence']}")
        if result["period"] != period:
            failures.append(f"p={p} period {result['period']}")
        if result["cond_diag"] != diag:
            failures.append(f"p={p} diagnostics {result['cond_diag']}")
    elapsed = time.time() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    with capsys.disabled():
        ok = report(1, not failures,
                    "tau-orbit reproduces all four table rows, periods and "
                    f"diagnostics exactly ({elapsed:.1f}s)"
                    + (f"; failures: {failures}" if failures else ""))
    assert ok


def test_criterion_2_qrt_family(qrt_sweep, capsys):
    results, elapsed = qrt_sweep
    failures = []
    for (p, a, gamma), res in results.items():
        statuses = {r.report.status for r in res.records}
        if gamma in (0, 1, 2):
            if not res.all_confined:
                failures.append(f"p={p} a={a} g={gamma} not all confined")
            if not res.has_agr:
                failures.append(f"p={p} a={a} g={gamma} no closed form")
        else:
            if statuses != {ConfinementStatus.DEGREE_OVERFLOW} or \
                    not all(r.report.truncated for r in res.records):
                failures.append(f"p={p} a={a} g={gamma} statuses {statuses}")
            if res.has_agr:
                failures.append(f"p={p} a={a} g={gamma} has_agr")
        if gamma == 2:
            for rec in res.records:
                rep = rec.report
                if rec.y_residue == 0:
                    if rep.m != 8 or rep.image != (FpProj(p, 0), FpProj(p, 0)):
                        failures.append(f"p={p} a={a} double zero {rep.m}")
                else:
                    want = reduce_proj(Fraction(1, a * a * rec.y_residue), p)
                    if rep.m != 3 or rep.image != (want, FpProj(p, 0)):
                        failures.append(f"p={p} a={a} y={rec.y_residue}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    with capsys.disabled():
        ok = report(2, not failures,
                    "QRT scans: gamma 0-2 all confined with closed forms "
                    "(m=3 image (1/(a^2 y), 0); m=8 image (0,0) at the "
                    "double zero); gamma 3-4 hit the degree bound "
                    f"({elapsed:.1f}s)"
                    + (f"; failures: {failures[:4]}" if failures else ""))
    assert ok


def _dp2_expected(params, point, n, t):
    """Case classification -> (m, x image, y image) from the closed forms."""
    p = params.p
    a, d = params.a, params.delta
    red = lambda v: reduce_proj(v, p)
    if point == "+1":
        if params.alpha(n) == 0:
            return 1, red(params.beta(n) / 2 - t), FpProj(p, 1)
        if params.beta(n + 2) != 0:
            x = (2 * params.alpha(n) * t + 2 * d * params.beta(n + 1)
                 + (2 - d) * a) / (2 * params.beta(n + 2))
            return 3, red(x), FpProj(p, p - 1)
        if a != -d:
            return 5, red(-(a * d - (a - d) * t) / (a + d)), FpProj(p, 1)
        return 7, red((1 + 2 * t) / 2), FpProj(p, p - 1)
    if params.beta(n) == 0:
        return 1, red(params.alpha(n) / 2 - t), FpProj(p, p - 1)
    if params.alpha(n + 2) != 0:
        x = (a * (-2 + d) - 2 * d * params.alpha(n + 1)
             + 2 * params.beta(n) * t) / (2 * params.alpha(n + 2))
        return 3, red(x), FpProj(p, 1)
    if a != d:
        return 5, red((a * d + (a + d) * t) / (a - d)), FpProj(p, p - 1)
    return 7, red((-1 + 2 * t) / 2), FpProj(p, 1)


INTERMEDIATE = {
    ("+1", 3): ("inf", -1), ("+1", 5): ("inf", -1, "inf", 1),
    ("+1", 7): ("inf", -1, "inf", 1, "inf", -1),
    ("-1", 3): ("inf", 1), ("-1", 5): ("inf", 1, "inf", -1),
    ("-1", 7): ("inf", 1, "inf", -1, "inf", 1),
}


def test_criterion_3_dp2_cases(dp2_sweep, capsys):
    results, elapsed = dp2_sweep
    failures = []
    seen_cases = {p: set() for p in DP2_SETS}
    for (p, triple), (params, res) in results.items():
        for rec in res.records:
            rep = rec.report
            if rep.status is not ConfinementStatus.CONFINED:
                failures.append(f"p={p} {triple} {rec.point} unconfined")
                continue
            m, want_x, want_y = _dp2_expected(params, rec.point, rec.n,
                                              Fraction(rec.y_residue))
            seen_cases[p].add((rec.point, m))
            if rep.m != m:
                failures.append(
                    f"p={p} {triple} ({rec.point},{rec.y_residue},{rec.n}) "
                    f"m={rep.m} want {m}")
            elif rep.image != (want_x, want_y):
                failures.append(
                    f"p={p} {triple} ({rec.point},{rec.y_residue},{rec.n}) "
                    f"image {tuple(map(str, rep.image))}")
            if rep.m and rep.m > 1:
                pattern = INTERMEDIATE[(rec.point, rep.m)]
                got = rep.x_trace[:rep.m - 1]
                want = [FpProj.infinity(p) if v == "inf" else FpProj(p, v)
                        for v in pattern]
                if got != want:
                    failures.append(f"p={p} {triple} intermediates {got}")
    for p, cases in seen_cases.items():
        missing = {("+1", 1), ("+1", 3), ("+1", 5), ("+1", 7),
                   ("-1", 1), ("-1", 3), ("-1", 5), ("-1", 7)} - cases
        if missing:
            failures.append(f"p={p} cases not exercised: {missing}")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    with capsys.disabled():
        ok = report(3, not failures,
                    "dP-II scans over 5 parameter sets per prime: lengths "
                    "{1,3,5,7} match the case conditions and every image "
                    f"matches its closed form for every companion ({elapsed:.1f}s)"
                    + (f"; failures: {failures[:4]}" if failures else ""))
    assert ok


def test_criterion_4_cross_engine_equivalence(dp2_sweep, capsys):
    results, _ = dp2_sweep
    t0 = time.time()
    mismatches = []
    states = 0
    for (p, triple), (params, res) in results.items():
        by_key = {(r.point, r.y_residue, r.n): r.report for r in res.records}
        step = dp2_fp_pattern(params)
        for t in range(p):
            for u in range(p):
                for n in range(p):
                    states += 1
                    emitted = list(step(t, u, n))
                    if (u == 1 and params.alpha(n) != 0) or \
                       (u == p - 1 and params.beta(n) != 0):
                        point = "+1" if u == 1 else "-1"
                        rep = by_key[(point, t, n)]
                        x_trace = [v.residue for v in rep.x_trace]
                        if rep.m != len(emitted) or x_trace != emitted:
                            mismatches.append((p, triple, t, u, n))
                        elif rep.image[1].residue != emitted[-2]:
                            mismatches.append((p, triple, t, u, n, "y"))
                    else:
                        # case 1: one regular step; compare against the
                        # reduced exact step from a p-integral lift
                        x_lift = Fraction(u if u not in (1, p - 1) else u + p)
                        over_q = dp2_step(x_lift, Fraction(t), n, params)
                        want = reduce_proj(over_q[0], p).residue
                        if len(emitted) != 1 or emitted[0] != want:
                            mismatches.append((p, triple, t, u, n, "case1"))
    elapsed = time.time() - t0
    with capsys.disabled():
        ok = report(4, not mismatches,
                    f"seven-case pattern vs perturbation engine agree on all "
                    f"{states} enumerated states at p in (3,5,7) "
                    f"({elapsed:.1f}s)"
                    + (f"; mismatches: {mismatches[:4]}" if mismatches else ""))
    assert ok


def test_criterion_5_solution_property(capsys):
    t0 = time.time()
    checked = 0
    excluded_pm1 = []
    excluded_undefined = []
    bad = []
    for N in (1, 2, 3, 4):
        for lam in (Fraction(1), Fraction(2)):
            tp = TauParams(N=N, lam=lam)
            for n in range(-20, 21):
                try:
                    triple = [rational_u(k, tp) for k in (n - 1, n, n + 1)]
                except ZeroTauDenominatorError:
                    excluded_undefined.append((N, str(lam), n))
                    continue
                if triple[1] in (1, -1):
                    excluded_pm1.append((N, str(lam), n))
                    continue
                if dp2_scalar_residual(*triple, n, tp) != 0:
                    bad.append((N, str(lam), n))
                checked += 1
    elapsed = time.time() - t0
    detail = (f"residual exactly zero on {checked} triples for N in 1..4, "
              f"lambda in (1,2), n in [-20,20]; excluded {len(excluded_pm1)} "
              f"singular u=+-1 points {excluded_pm1} and "
              f"{len(excluded_undefined)} undefined points (exact tau zero, "
              f"all at N=1) {excluded_undefined} ({elapsed:.1f}s)")
    with capsys.disabled():
        ok = report(5, not bad, detail + (f"; nonzero: {bad}" if bad else ""))
    assert ok


def test_criterion_6_property_suites(capsys):
    rng = random.Random(SEED)
    t0 = time.time()
    failures = []

    def rand_frac(p=None):
        num = rng.randint(-10**4, 10**4)
        den = rng.randint(1, 400)
        while p is not None and den % p == 0:
            den = rng.randint(1, 400)
        return Fraction(num, den)

    # (a) reduction is a ring homomorphism: 1000 cases
    from dp2fp import pnorm
    for _ in range(1000):
        p = rng.choice((3, 5, 7, 11))
        x, y = rand_frac(p), rand_frac(p)
        if reduce_mod(x + y, p) != reduce_mod(x, p) + reduce_mod(y, p) or \
           reduce_mod(x - y, p) != reduce_mod(x, p) - reduce_mod(y, p) or \
           reduce_mod(x * y, p) != reduce_mod(x, p) * reduce_mod(y, p):
            failures.append(("homomorphism", p, x, y))

    # (b) ultrametric inequality with the equality clause: 1000 cases
    for _ in range(1000):
        p = rng.choice((3, 5, 7, 11))
        x, y = rand_frac(), rand_frac()
        lhs, nx, ny = pnorm(x + y, p), pnorm(x, p), pnorm(y, p)
        if lhs > max(nx, ny) or (nx != ny and lhs != max(nx, ny)):
            failures.append(("ultrametric", p, x, y))

    # (c) good-reduction commutation on case-1 states: 1000 cases
    count = 0
    while count < 1000:
        p = rng.choice((3, 5, 7))
        triple = rng.choice(DP2_SETS[p])
        params = build_dp2_params(p, *triple)
        u, t, n = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if u == 1 and params.alpha(n) != 0:
            continue
        if u == p - 1 and params.beta(n) != 0:
            continue
        x = u + p * rand_frac(p)
        y = t + p * rand_frac(p)
        if x in (1, -1):
            continue
        emitted = dp2_fp_pattern(params)(t, u, n)
        over_q = dp2_step(x, y, n, params)
        if emitted[0] != reduce_proj(over_q[0], p).residue:
            failures.append(("good-reduction", p, triple, u, t, n))
        count += 1

    # (d) determinant oracle equivalence for N <= 5: 1000 cases
    def cofactor(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(len(rows)):
            if rows[0][j]:
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * cofactor(minor)
        return total

    for _ in range(1000):
        N = rng.randint(1, 5)
        n = rng.randint(-10, 10)
        lam = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
        rows = [[laguerre(N - 2 * i + j, n, lam) for j in range(N)]
                for i in range(N)]
        if det_fraction_free(rows) != cofactor(rows):
            failures.append(("determinant", N, n, str(lam)))

    # (e) shift congruence of the determinants: 1000 sampled n; mismatches
    # are findings to report, not silent failures
    shift_counterexamples = set()
    for _ in range(1000):
        N = rng.choice((3, 4))
        p = rng.choice((3, 5, 7, 11))
        n = rng.randint(-80, 80)
        a = reduce_proj(tau_det(N, n, Fraction(1)), p)
        b = reduce_proj(tau_det(N, n + p, Fraction(1)), p)
        if a != b:
            shift_counterexamples.add((N, p, n, str(a), str(b)))
    finding = ""
    if shift_counterexamples:
        sample = sorted(shift_counterexamples)[:3]
        finding = (f"; FINDING: the shift congruence tau_N^(n+p) = tau_N^n "
                   f"(mod p) FAILS at {len(shift_counterexamples)} sampled "
                   f"points, e.g. {sample} - reported, not silently tolerated")

    elapsed = time.time() - t0
    with capsys.disabled():
        ok = report(6, not failures,
                    f"randomized suites (seed {SEED}, 1000 cases each): "
                    "homomorphism, ultrametric with equality clause, "
                    "good-reduction commutation, determinant oracle all "
                    f"exact ({elapsed:.1f}s)" + finding
                    + (f"; failures: {failures[:4]}" if failures else ""))
    assert ok


# dP-II scans that criterion 7 adds to the sweeps: p = 11 and 13 with a
# generic a, a = -delta and a = delta, and sets outside the covered case
# table, where p divides a + delta or a - delta (the next four) or a (the
# last two).  dP-II typed as a custom map and the Hietarinta-Viallet map,
# which confines only without a degree bound, are added at p = 5 and 7.
ORACLE_DP2_SETS = [(11, 5, 3, 2), (13, 5, 3, 2), (13, -3, 3, 2),
                   (13, 3, 3, 2), (3, -8, 2, 2), (5, 2, 3, 1), (7, 8, 1, 2),
                   (7, 3, 4, 2), (3, 6, 4, -5), (5, 5, 3, 2)]
ORACLE_CUSTOM_MAPS = [("((2*n+3)*x+1)/(1-x^2)-y", "x"), ("x + 1/x^2 - y", "x")]


def test_criterion_7_sampling_consistency(qrt_sweep, dp2_sweep, capsys):
    """Every confined record of the sweeps is lift-independent, and the
    nine-sample substitution over Q, run on every confined record, agrees
    with the certificate: a certified record has every defined sample
    reduce to its image, and a record the certificate refuses has two
    samples that reduce differently."""
    qrt_results, _ = qrt_sweep
    dp2_results, _ = dp2_sweep
    t0 = time.time()
    lift_dependent = []
    scans = []
    for (p, a, gamma), res in qrt_results.items():
        if gamma <= 2:
            scans.append((("qrt", p, a, gamma),
                          QRTMap(QRTParams(p=p, gamma=gamma, a=a)), res))
    for (p, triple), (params, res) in dp2_results.items():
        scans.append((("dp2", p, *triple), DP2Map(params), res))
    for key, _, res in scans:
        lift_dependent += [(key, rec.point, rec.y_residue, rec.n)
                           for rec in res.records
                           if rec.report.status is ConfinementStatus.CONFINED
                           and rec.sampling_ok is not True]
    for p, *triple in ORACLE_DP2_SETS:
        fam = DP2Map(build_dp2_params(p, *triple))
        scans.append((("dp2", p, *triple), fam, agr_scan(fam)))
    with degree_limit(None):
        for exprs, p in itertools.product(ORACLE_CUSTOM_MAPS, (5, 7)):
            fam = CustomMap(*exprs, p)
            scans.append((("custom", *exprs, p), fam, agr_scan(fam)))

    counts = Counter()
    failures = []
    for key, fam, res in scans:
        for rec in res.records:
            rep = rec.report
            if rep.status is not ConfinementStatus.CONFINED:
                continue
            samples = sample_images(fam, rec.lift, rep.m)
            images = [image for _, image in itertools.islice(samples, 9)]
            defined = [image for image in images if image is not None]
            counts["undefined samples"] += len(images) - len(defined)
            if rep.certified:
                counts["certified"] += 1
                ok = all(image == rep.image for image in defined)
            else:
                counts["refused"] += 1
                ok = len(set(defined)) >= 2
            if not ok:
                failures.append((key, rec.point, rec.y_residue, rec.n))
    if not counts["refused"]:
        failures.append("no record the certificate refuses")
    elapsed = time.time() - t0
    with capsys.disabled():
        ok = report(7, not lift_dependent and not failures,
                    "every confined report of the sweeps is lift-independent,"
                    f" and over {len(scans)} scans the nine-sample "
                    "substitution agrees with the certificate on "
                    f"{counts['certified']} certified and {counts['refused']}"
                    f" refused reports ({counts['undefined samples']} "
                    f"undefined samples; {elapsed:.1f}s)"
                    + (f"; lift-dependent: {lift_dependent[:4]}"
                       if lift_dependent else "")
                    + (f"; failures: {failures[:4]}" if failures else ""))
    assert ok
