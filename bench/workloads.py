"""Seeded request streams for the four workloads.

A stream is an endless sequence of rounds; a round is a list of requests.
A request is the CLI argument list (without ``--out``) together with the
checker for its output.  The same seed always gives the same stream.  Runs
attempt whole rounds, so every run holds each part of a round in the same
share.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks


@dataclass(frozen=True)
class Request:
    argv: tuple
    checker: Callable
    known_fault: bool = False  # expected to be hit by the detect_period fault


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _unit(rng, p: int, lo: int, hi: int) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v % p:
            return v


def _dp2_triple(rng, p: int, kind: str):
    """(a, delta, z0) with delta a unit, p not dividing a, and a +- delta
    either exactly zero or a unit: the regime the case table covers."""
    delta = _unit(rng, p, 1, 2 * p)
    z0 = rng.randint(-p, p)
    if kind == "a=-delta":
        return -delta, delta, z0
    if kind == "a=delta":
        return delta, delta, z0
    while True:
        a = _unit(rng, p, -2 * p, 2 * p)
        if (a + delta) % p and (a - delta) % p:
            return a, delta, z0


# (prime, parameter kind).  a = -delta gives seven-step excursions at
# x = +1, a = delta at x = -1.  One prime gives requests of equal size, so
# a run's median request time rests on every request, not on one or two.
DP2_SCANS = ((13, "generic"), (13, "a=-delta"), (13, "a=delta"))


def dp2_scan_rounds(seed: int):
    """One scan for each entry of DP2_SCANS per round, in seeded order."""
    rng = _rng("dp2-scan", seed)
    while True:
        rnd = []
        for p, kind in DP2_SCANS:
            a, delta, z0 = _dp2_triple(rng, p, kind)
            rnd.append(Request(("agr-scan", "--map", "dp2", "--p", str(p),
                                f"--a={a}", f"--delta={delta}", f"--z0={z0}"),
                               checks.check_dp2_scan))
        rng.shuffle(rnd)
        yield rnd


def qrt_sweep_rounds(seed: int):
    """Every gamma in 0..4 at every a for p = 5 and 7: 50 requests a round,
    in seeded order.  The seed orders the sweep and nothing else.  The cost
    of a divergent scan grows with a (1.1 to 2.3 s at p = 7, gamma = 3), so
    a seeded subset of the a would make the work in a run, and its median
    request time, depend on the seed.  p = 3 is left out: its gamma = 2 and
    gamma = 4 scans cost less than those at p = 5 and 7 but more than
    gamma <= 1, and with them the run's median request time fell on the
    border between the two groups."""
    rng = _rng("qrt-sweep", seed)
    sweep = [Request(("agr-scan", "--map", "qrt", "--gamma", str(g),
                      "--a", str(a), "--p", str(p)), checks.check_qrt_scan)
             for p in (5, 7) for a in range(1, p) for g in range(5)]
    while True:
        rnd = sweep[:]
        rng.shuffle(rnd)
        yield rnd


# evolve requests whose reported period is wrong because detect_period
# hashes pairs holding inf as states; they do not depend on the seed and
# open every fp-orbit round.  (p, a, delta, z0, u0, u1, steps)
FP_KNOWN_FAULT = (
    (13, 7, 10, 10, 3, 5, 60),
    (101, 91, 36, 53, 45, 87, 812),
)
# One seeded request per (prime, parameter kind).
FP_ORBITS = ((53, "a=-delta"), (109, "a=delta"), (163, "generic"),
             (223, "generic"), (277, "generic"), (331, "a=-delta"),
             (389, "a=delta"), (443, "generic"), (499, "generic"))
# Values each seeded request computes, its orbit and the period search
# together.  Equal work per request makes a run's median request time
# follow the whole run instead of the requests at one prime.
FP_WORK = 6000


def _evolve(p, a, delta, z0, u0, u1, steps, known_fault=False):
    return Request(("evolve", "--p", str(p), f"--a={a}", f"--delta={delta}",
                    f"--z0={z0}", "--u0", str(u0), "--u1", str(u1),
                    "--steps", str(steps)),
                   checks.check_evolve, known_fault)


def fp_orbit_rounds(seed: int):
    """The two known-fault requests, then one seeded evolve request for
    each entry of FP_ORBITS, in seeded order.  Each seeded orbit runs for
    at least two full state cycles of the paper's seven-case dynamics, and
    for as many as bring its work near FP_WORK.  Seeded
    instances that the detect_period fault would hit are drawn again: a
    failure that depends on the seed would change the failed share from run
    to run, so the fault is carried by the fixed requests alone."""
    rng = _rng("fp-orbit", seed)
    while True:
        rnd = []
        for p, kind in FP_ORBITS:
            while True:
                a, delta, z0 = _dp2_triple(rng, p, kind)
                u0, u1 = rng.randrange(p), rng.randrange(p)
                c = checks.Dp2Residues(p, a, delta, z0)
                orbit = checks.reference_orbit(c, u0, u1, 1, 16 * p + 32)
                first = checks.first_state_repeat(orbit, 1, p)
                if first is not None and (
                        checks.least_period(orbit, 1, p)
                        == checks.least_period(orbit, 1, p, False)):
                    break
            cycles = max(2, round((FP_WORK - first) / (first + 1)))
            rnd.append(_evolve(p, a, delta, z0, u0, u1,
                               cycles * (first + 1)))
        rng.shuffle(rnd)
        yield [_evolve(*spec, known_fault=True)
               for spec in FP_KNOWN_FAULT] + rnd


# N -> (p, count).  p does not divide N (N + 2), and at N = 9, 10 the
# Laguerre indices reach p (2N - 1 >= p).  The counts make every request
# cost about the same, so a run's median request time follows the whole
# run instead of the requests at one N.
TAU_REQUESTS = {2: (47, 280), 3: (43, 180), 4: (41, 110), 5: (37, 85),
                6: (31, 60), 7: (29, 55), 8: (23, 45), 9: (17, 35),
                10: (13, 30)}
_Q = 2 ** 61 - 1  # a prime far above every factorial prime in play


def _det_mod_q(rows) -> int:
    rows = [row[:] for row in rows]
    det = 1
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det = det * rows[k][k] % _Q
        inv = pow(rows[k][k], -1, _Q)
        for i in range(k + 1, len(rows)):
            f = rows[i][k] * inv % _Q
            rows[i] = [(x - f * y) % _Q for x, y in zip(rows[i], rows[k])]
    return det


def tau_vanishes(N: int, lam: Fraction, ns) -> bool:
    """Whether tau_N^n or tau_{N+1}^n may be 0 over Q for some n in ns.

    tau_M^n is the M x M determinant of Laguerre values L_{M-2i+j}^(n)(lam).
    It is evaluated mod a large prime: a nonzero residue proves tau != 0,
    and a zero residue is taken as a zero.  The CLI refuses such requests
    with ZERO_TAU_DENOMINATOR, since u_n is then undefined over Q."""
    lam_q = lam.numerator * pow(lam.denominator, -1, _Q) % _Q
    top = 2 * N + 2
    inv_fact = [pow(math.factorial(r), -1, _Q) for r in range(top)]
    powers = [pow(lam_q, r, _Q) for r in range(top)]
    for n in ns:
        lag = [sum((-1) ** r * math.comb(k + n, k - r) * powers[r]
                   * inv_fact[r] for r in range(k + 1)) % _Q
               for k in range(top)]
        for M in (N, N + 1):
            rows = [[lag[M - 2 * i + j] if M - 2 * i + j >= 0 else 0
                     for j in range(M)] for i in range(M)]
            if _det_mod_q(rows) == 0:
                return True
    return False


def tau_orbit_rounds(seed: int):
    """The four published rows (N = 3, lambda = 1) open the stream; every
    round then holds one request for each N in TAU_REQUESTS, in seeded order,
    with a seeded lambda = +-(1..12)/(1..6) that is a unit at p.  No two
    seeded requests share (N, lambda).  A lambda at which a determinant the
    request needs vanishes over Q is drawn again."""
    rng = _rng("tau-orbit", seed)
    used = {(3, Fraction(1))}
    first = [Request(("tau-orbit", "--p", str(p), "--N", "3", "--lambda", "1"),
                     checks.check_tau_orbit)
             for p in sorted(checks.PUBLISHED_TAU_ROWS)]
    while True:
        ns = list(TAU_REQUESTS)
        rng.shuffle(ns)
        rnd, first = first, []
        for N in ns:
            p, count = TAU_REQUESTS[N]
            while True:
                lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                               rng.randint(1, 6))
                if (lam.numerator % p and lam.denominator % p
                        and (N, lam) not in used
                        and not tau_vanishes(N, lam, {*range(1, count + 1),
                                                      N % p})):
                    break
            used.add((N, lam))
            rnd.append(Request(("tau-orbit", "--p", str(p), "--N", str(N),
                                f"--lambda={lam}", "--count", str(count)),
                               checks.check_tau_orbit))
        yield rnd


# Rounds of a traced run.  Each request of them runs twice, untraced and
# traced, so a traced run lasts 20 to 60 s.
TRACE_ROUNDS = {"dp2-scan": 3, "qrt-sweep": 1, "fp-orbit": 4, "tau-orbit": 8}

WORKLOADS = {
    "dp2-scan": dp2_scan_rounds,
    "qrt-sweep": qrt_sweep_rounds,
    "fp-orbit": fp_orbit_rounds,
    "tau-orbit": tau_orbit_rounds,
}


def items_of(command: str, result: dict) -> int:
    """Items in one output: scan records, or returned sequence values."""
    if command == "agr-scan":
        return len(result["reports"])
    return len(result["sequence"])
