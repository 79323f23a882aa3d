"""Command-line front end.

Subcommands:

  evolve      finite-field orbit of dP-II from two finite seeds, plus period
  tau-orbit   reduced determinant solution, condition diagnostics, period
  agr-scan    confinement report table over all reduced singular points
  reduce      projective reduction of one rational
  solve-check residuals of a user-supplied sequence against the recurrence

Output is JSON (default) or CSV.  JSON payloads carry the fixed top-level
keys ``command``, ``params``, ``result``, ``errors`` in that order, with
residues serialized as decimal strings and the point at infinity as the
string ``"inf"`` so output is byte-stable across runs.  Exit status: 0 on
success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from itertools import chain, islice

from .errors import Dp2Error
from .padic import check_odd_prime, parse_rational, reduce_proj

# At import this module loads only what every subcommand uses: argparse,
# json, errors and padic.  Each subcommand imports the engine modules it
# runs, so a request loads those alone.

# The largest prime ``evolve`` and ``tau-orbit`` take.  The period search
# keeps about 4p states; at p = 65521 an ``evolve`` process peaks at 76 MB.
MAX_EVOLVE_PRIME = 1 << 16

# The largest ``--steps`` ``evolve`` takes.  Every value is kept and
# written; at p = 5, 10^6 steps take 1.1 s, peak at 153 MB and write 11 MB
# of JSON.
MAX_EVOLVE_STEPS = 10 ** 6

# The largest solution index N ``tau-orbit`` takes; its prime obeys
# MAX_EVOLVE_PRIME and its count 2 * MAX_EVOLVE_PRIME.  A value costs an
# N x N and an (N+1) x (N+1) determinant; at p = 101 with the default
# count 2p, N = 10 takes 0.8 s and N = 16 takes 4.5 s, and at p = 65521
# one value costs about 17 ms at N = 16.
MAX_TAU_N = 16


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except Dp2Error as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _at_least(minimum: int):
    """argparse type: an int >= minimum, else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _param_binding(text: str):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r}")
    return name.strip(), _rational(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp2fp",
        description="Exact dP-II arithmetic: p-adic reduction, singularity "
                    "confinement, and evolution over the projective line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", metavar="PATH", default=None,
                        help="write the artifact here instead of stdout")

    sp = sub.add_parser("evolve", help="finite-field dP-II orbit and period")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=_rational, required=True)
    sp.add_argument("--delta", type=_rational, required=True)
    sp.add_argument("--z0", type=_rational, required=True)
    sp.add_argument("--u0", type=int, required=True, help="residue of u_0")
    sp.add_argument("--u1", type=int, required=True, help="residue of u_1")
    sp.add_argument("--steps", type=_at_least(0), default=20)
    add_output_flags(sp)

    sp = sub.add_parser("tau-orbit",
                        help="reduced determinant solution with diagnostics")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=_at_least(1), required=True)
    sp.add_argument("--lambda", dest="lam", type=_rational, required=True)
    sp.add_argument("--count", type=_at_least(0), default=None,
                    help="sequence length (default 2p)")
    add_output_flags(sp)

    sp = sub.add_parser("agr-scan", help="confinement scan of singular points")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--map", choices=("dp2", "qrt", "custom"), required=True)
    sp.add_argument("--a", type=_rational, default=None)
    sp.add_argument("--delta", type=_rational, default=None)
    sp.add_argument("--z0", type=_rational, default=None)
    sp.add_argument("--gamma", type=int, default=None)
    sp.add_argument("--expr-x", default=None)
    sp.add_argument("--expr-y", default=None)
    sp.add_argument("--param", action="append", type=_param_binding,
                    default=[], metavar="NAME=VALUE")
    sp.add_argument("--max-steps", type=_at_least(1), default=30)
    add_output_flags(sp)

    sp = sub.add_parser("reduce", help="projective reduction of a rational")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--value", type=_rational, required=True)
    add_output_flags(sp)

    sp = sub.add_parser("solve-check",
                        help="residuals of a sequence against the recurrence")
    sp.add_argument("--a", type=_rational, required=True)
    sp.add_argument("--delta", type=_rational, required=True)
    sp.add_argument("--z0", type=_rational, required=True)
    sp.add_argument("--n0", type=int, default=0,
                    help="time index of the first value")
    sp.add_argument("values", nargs="+", type=_rational,
                    help="sequence u_{n0}, u_{n0+1}, ...")
    add_output_flags(sp)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then shared by
    every later call in the process.  Parsing leaves it unchanged."""
    return build_parser()


def _residue_text(value) -> str:
    return "inf" if value is None else str(value)


def _cmd_evolve(args, parser):
    """The first --steps values, then the same orbit continued until a
    state repeats, for the period; every value is computed once."""
    from . import fpdynamics
    from .maps import build_dp2_params

    check_odd_prime(args.p)
    if args.p > MAX_EVOLVE_PRIME:
        parser.error(f"evolve is guarded to p <= {MAX_EVOLVE_PRIME}")
    if args.steps > MAX_EVOLVE_STEPS:
        parser.error(f"evolve is guarded to --steps <= {MAX_EVOLVE_STEPS}")
    params = build_dp2_params(args.p, args.a, args.delta, args.z0)
    values = fpdynamics.iterate_dp2_residues(args.u0, args.u1, params)
    orbit = list(islice(values, args.steps))
    period = fpdynamics.detect_period(chain(orbit, values), args.p)
    return {"sequence": [_residue_text(v) for v in orbit], "period": period}


def _first_finite_pair(residues):
    for i in range(len(residues) - 1):
        if residues[i] is not None and residues[i + 1] is not None:
            return i
    return None


def _cmd_tau_orbit(args, parser):
    from . import fpdynamics, tau
    from .maps import build_dp2_params

    check_odd_prime(args.p)
    if args.p > MAX_EVOLVE_PRIME:
        parser.error(f"tau-orbit is guarded to p <= {MAX_EVOLVE_PRIME}")
    count = args.count if args.count is not None else 2 * args.p
    if count > 2 * MAX_EVOLVE_PRIME:
        parser.error(
            f"tau-orbit is guarded to --count <= {2 * MAX_EVOLVE_PRIME}")
    if args.N > MAX_TAU_N:
        parser.error(f"tau-orbit is guarded to --N <= {MAX_TAU_N}")
    if args.lam == 0:
        parser.error("tau-orbit needs a nonzero --lambda")
    params = tau.TauParams(N=args.N, lam=args.lam)
    residues = [v.residue for v in tau.reduced_solution(params, args.p, count)]
    cond = tau.taucond(params, args.p)

    dp2 = build_dp2_params(args.p, params.a, params.delta, params.z0)
    start = _first_finite_pair(residues)
    if start is None:
        period = None
    else:
        values = fpdynamics.iterate_dp2_residues(
            residues[start], residues[start + 1], dp2, start_n=start + 2)
        period = fpdynamics.detect_period(values, args.p)
    return {
        "sequence": [_residue_text(v) for v in residues],
        "period": period,
        "cond_diag": [str(cond.product_diag), str(cond.ratio_diag)],
        "cond_satisfied": [cond.product_nonzero, cond.ratio_not_two],
    }


def _build_scan_family(args, parser):
    from .maps import DP2Map, QRTMap, QRTParams, build_dp2_params

    if args.map == "dp2":
        if None in (args.a, args.delta, args.z0):
            parser.error("agr-scan --map dp2 needs --a, --delta and --z0")
        return DP2Map(build_dp2_params(args.p, args.a, args.delta, args.z0))
    if args.map == "qrt":
        if args.gamma is None or args.a is None:
            parser.error("agr-scan --map qrt needs --gamma and --a")
        if args.a.denominator != 1:
            parser.error("qrt parameter a must be an integer")
        return QRTMap(QRTParams(p=args.p, gamma=args.gamma, a=int(args.a)))
    if args.expr_x is None or args.expr_y is None:
        parser.error("agr-scan --map custom needs --expr-x and --expr-y")
    from .mapexpr import CustomMap
    return CustomMap(args.expr_x, args.expr_y, args.p, dict(args.param))


def _cmd_agr_scan(args, parser):
    from . import confinement

    check_odd_prime(args.p)
    if args.p > confinement.MAX_SCAN_PRIME:
        parser.error(
            f"agr-scan is guarded to p <= {confinement.MAX_SCAN_PRIME}")
    if args.max_steps > confinement.MAX_SCAN_STEPS:
        parser.error("agr-scan is guarded to --max-steps <= "
                     f"{confinement.MAX_SCAN_STEPS}")
    family = _build_scan_family(args, parser)
    result = confinement.agr_scan(family, max_steps=args.max_steps)
    reports = []
    for rec in result.records:
        rep = rec.report
        reports.append({
            "point": rec.point,
            "y_residue": str(rec.y_residue),
            "n": rec.n,
            "status": rep.status.value,
            "m": rep.m,
            "image_x": str(rep.image[0]) if rep.image else None,
            "image_y": str(rep.image[1]) if rep.image else None,
            "pole_orders": [o if o != float("inf") else "inf"
                            for o in rep.pole_orders],
        })
    return {
        "reports": reports,
        "all_confined": result.all_confined,
        "closed_form_ok": result.closed_form_ok,
        "ambiguous": result.ambiguous,
        "has_agr": result.has_agr,
    }


def _cmd_reduce(args):
    return {"value": str(reduce_proj(args.value, args.p))}


def _cmd_solve_check(args):
    from .maps import dp2_scalar_residual

    residuals = []
    indices = []
    skipped = []
    values = args.values
    for i in range(1, len(values) - 1):
        n = args.n0 + i
        if values[i] in (1, -1):
            skipped.append(n)
            continue
        r = dp2_scalar_residual(values[i - 1], values[i], values[i + 1], n,
                                args)
        indices.append(n)
        residuals.append(str(r))
    ok = all(r == "0" for r in residuals)
    return {"indices": indices, "residuals": residuals,
            "skipped": skipped, "ok": ok}


def _csv_text(command: str, result: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command in ("evolve", "tau-orbit"):
        writer.writerow(["index", "value"])
        for i, v in enumerate(result["sequence"], start=1):
            writer.writerow([i, v])
    elif command == "agr-scan":
        writer.writerow(["point", "y_residue", "n", "status", "m",
                         "image_x", "image_y", "pole_orders"])
        for rep in result["reports"]:
            writer.writerow([
                rep["point"], rep["y_residue"], rep["n"], rep["status"],
                "" if rep["m"] is None else rep["m"],
                rep["image_x"] or "", rep["image_y"] or "",
                " ".join(str(o) for o in rep["pole_orders"]),
            ])
    elif command == "reduce":
        writer.writerow(["value"])
        writer.writerow([result["value"]])
    else:
        writer.writerow(["index", "residual"])
        for n, r in zip(result["indices"], result["residuals"]):
            writer.writerow([n, r])
    return buf.getvalue()


def _public_params(args) -> dict:
    skip = {"command", "format", "out"}
    out = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, list) and value and isinstance(value[0], tuple):
            value = {k: str(v) for k, v in value}
        elif isinstance(value, list):
            value = [str(v) if isinstance(v, Fraction) else v for v in value]
        out[key] = value
    return out


def _emit(args, payload: dict, command: str) -> None:
    if args.format == "csv" and not payload["errors"]:
        text = _csv_text(command, payload["result"])
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    command = args.command
    payload = {"command": command, "params": _public_params(args),
               "result": None, "errors": []}
    try:
        if command == "evolve":
            payload["result"] = _cmd_evolve(args, parser)
        elif command == "tau-orbit":
            payload["result"] = _cmd_tau_orbit(args, parser)
        elif command == "agr-scan":
            payload["result"] = _cmd_agr_scan(args, parser)
        elif command == "reduce":
            payload["result"] = _cmd_reduce(args)
        else:
            payload["result"] = _cmd_solve_check(args)
    except Dp2Error as exc:
        payload["errors"] = [{"code": exc.code, "message": str(exc)}]
        _emit(args, payload, command)
        return 1
    _emit(args, payload, command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
