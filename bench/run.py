#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dp2fp CLI.

    python3 bench/run.py --workload fp-orbit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1     # all four workloads, one process each

A run sends seeded requests through ``dp2fp.cli.main(argv)`` in-process,
whole rounds at a time, until the timed requests add up to ``--seconds``.
Each output is written with ``--out`` to a scratch file, parsed and checked
by the independent checkers in ``checks.py`` outside the timed region.

``--trace 0`` reports the end-to-end metrics.  The import of ``dp2fp.cli``
that gives ``setup_s`` is timed in fresh interpreters between requests,
spread over the whole run, so that it sees the same machine as the requests.

``--trace 1`` reports the per-layer metrics over a fixed number of rounds
(``workloads.TRACE_ROUNDS``), whatever ``--seconds`` says, so per-layer
totals stay comparable between versions of the program.  Each request runs
twice in a row, once untraced and once with the wrappers of ``tracing.py``
installed, the order alternating from one request to the next.  The tracing
overhead is the median over requests of the traced time over the untraced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("dp2-scan", "qrt-sweep", "fp-orbit", "tau-orbit")
SETUP_SAMPLES = 16
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import dp2fp.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all four, one process "
                             "each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import dp2fp.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


class Phase:
    """Requests, timings and check results of one pass over the stream."""

    def __init__(self):
        self.times = []
        self.argvs = []          # arguments of each request
        self.round_of = []       # round number of each request
        self.item_counts = []    # items in each request's output
        self.attempted = 0
        self.failed = 0
        self.fault_failures = 0
        self.problems = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.setup = []          # import times, taken between requests

    @property
    def timed(self) -> float:
        return sum(self.times)

    @property
    def items(self) -> int:
        return sum(self.item_counts)


def execute(req, scratch, clear_caches, tracer=None):
    """Run one request through cli.main; return (seconds, exit code).
    With a tracer, its wrappers are installed for this request only."""
    from dp2fp import cli, tau
    from dp2fp.padic import is_odd_prime

    if clear_caches:
        for f in (tau.laguerre, tau.tau_det, is_odd_prime):
            f.cache_clear()
    if os.path.exists(scratch):
        os.remove(scratch)
    if tracer is not None:
        tracer.request += 1
        tracer.install()
    try:
        start = perf_counter()
        try:
            code = cli.main(list(req.argv) + ["--out", scratch])
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        seconds = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
            if clear_caches:
                tracer.harvest_caches()
    return seconds, code


def record(phase, req, round_no, seconds, code, scratch):
    """Check one request's output and add it to the phase."""
    phase.times.append(seconds)
    phase.argvs.append(" ".join(req.argv))
    phase.round_of.append(round_no)
    phase.attempted += 1
    problems = []
    items = 0
    if code == 0:
        with open(scratch, "rb") as fh:
            raw = fh.read()
        if round_no == 0:
            phase.digest.update(raw)
            phase.digested += 1
        payload = json.loads(raw)
        items = workloads.items_of(payload["command"], payload["result"])
        problems = req.checker(payload["params"], payload["result"])
    phase.item_counts.append(items)
    if code != 0:
        phase.failed += 1
        print(f"  FAILED {' '.join(req.argv)}: exit {code}", file=sys.stderr)
    elif problems and all(p.startswith(checks.FAULT) for p in problems):
        phase.failed += 1
        phase.fault_failures += 1
        if not req.known_fault:
            print(f"warning: unexpected detect_period fault on "
                  f"{' '.join(req.argv)}", file=sys.stderr)
    elif problems:
        phase.problems.append((req.argv, problems))


def run_timed(name, seed, scratch, seconds) -> Phase:
    """Whole rounds of the workload's stream, untraced, until the timed
    requests add up to ``seconds``.  An import of dp2fp.cli is timed
    whenever the run passes the next of SETUP_SAMPLES even steps of
    ``seconds``, and after the last round until there are SETUP_SAMPLES."""
    clear = name == "tau-orbit"
    step = seconds / SETUP_SAMPLES
    import_seconds()  # the first import may compile the sources
    phase = Phase()
    for round_no, rnd in enumerate(workloads.WORKLOADS[name](seed)):
        for req in rnd:
            t, code = execute(req, scratch, clear)
            record(phase, req, round_no, t, code, scratch)
            while (len(phase.setup) < SETUP_SAMPLES
                   and phase.timed >= len(phase.setup) * step):
                phase.setup.append(import_seconds())
        if phase.timed >= seconds:
            break
    while len(phase.setup) < SETUP_SAMPLES:
        phase.setup.append(import_seconds())
    return phase


def run_traced(name, seed, scratch, tracer):
    """TRACE_ROUNDS rounds; each request runs untraced and traced, one
    right after the other, the order alternating.  Returns the untraced
    phase, the traced phase and the traced/untraced time ratios."""
    clear = name == "tau-orbit"
    plain, traced, ratios = Phase(), Phase(), []
    stream = workloads.WORKLOADS[name](seed)
    for round_no in range(workloads.TRACE_ROUNDS[name]):
        for req in next(stream):
            times = {}
            traced_first = len(ratios) % 2 == 1
            for with_tracer in (traced_first, not traced_first):
                t, code = execute(req, scratch, clear,
                                  tracer if with_tracer else None)
                record(traced if with_tracer else plain, req, round_no,
                       t, code, scratch)
                times[with_tracer] = t
            ratios.append(times[True] / times[False])
    return plain, traced, ratios


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"request-{args.workload}.json")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    header = f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
    print(header, flush=True)

    if args.trace == 0:
        phase = run_timed(args.workload, args.seed, scratch, args.seconds)
        phases = [phase]
        metrics = {
            "setup_s": (statistics.median(phase.setup), "s"),
            "items_per_s": (phase.items / phase.timed, "1/s"),
            "op_p50_ms": (statistics.median(phase.times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        import tracing

        tracer = tracing.Tracer()
        plain, traced, ratios = run_traced(args.workload, args.seed, scratch,
                                           tracer)
        phases = [plain, traced]
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = (
            100 * (statistics.median(ratios) - 1), "%")
        tracer.dump_spans(os.path.join(OUT, f"spans-{tag}.jsonl"))
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        print(f"  tracing overhead: {metrics['trace.overhead_pct'][0]:.1f}% "
              f"(median traced/untraced time of {len(ratios)} requests; "
              f"quartiles {q1:.3f}, {q3:.3f})")

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    faults = sum(ph.fault_failures for ph in phases)
    problems = [pr for ph in phases for pr in ph.problems]
    print(f"  attempted {attempted}  failed {failed} "
          f"(detect_period fault: {faults})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    first = phases[0]
    print(f"  outputs_sha256 {first.digest.hexdigest()} "
          f"(first round, {first.digested} outputs)")
    for argv, probs in problems[:10]:
        print(f"  WRONG {' '.join(argv)}: {probs[:3]}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, requests=[
            {"argv": a, "round": r, "seconds": t, "items": n}
            for ph in phases
            for a, r, t, n in zip(ph.argvs, ph.round_of, ph.times,
                                  ph.item_counts)]),
            fh, indent=2)
    return result


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dp2fp")):
        print(f"error: no dp2fp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, SRC)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
