"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions and methods of dp2fp at their
module or class attributes with timing wrappers, including every binding a
module made with ``from .x import y``; ``uninstall`` puts the originals back.
Untraced runs never install anything.

Each wrapper call is a span: name, start, end, parent span and request id.
A span's self time is its duration minus the time its child spans cover; a
nested call into the same layer (``__sub__`` calling ``__add__``,
``QRTMap.step`` calling ``qrt_step``) adds self time but not a second call.
Spans at request and confinement level are kept in memory and written out
at the end.  The fine-grained ones (perturbation arithmetic, map steps,
residue reductions, single seven-case patterns, Laguerre values) run into
the millions per run, so they are folded into per-name totals as they close;
the totals are the same as summing the kept spans would give.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter

import dp2fp
from dp2fp import (cli, confinement, epsfield, fpdynamics, mapexpr, maps,
                   padic, tau)
from dp2fp.errors import DegreeOverflowError

MODULES = (dp2fp, cli, confinement, epsfield, fpdynamics, mapexpr, maps,
           padic, tau)

# Spans kept whole (the rest are folded into totals).
KEPT = {"cli.main", "confinement.confine", "confinement.verify",
        "confinement.fit", "fpdynamics.detect_period"}
# Spans whose single durations are kept for percentiles.
TIMED = {"confinement.confine", "fpdynamics.pattern"}

EPS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__")


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [child_time, name, span_id]
        self.calls = {}          # name -> calls (outermost in the layer)
        self.self_time = {}      # name -> summed self time
        self.durations = {name: array("d") for name in TIMED}
        self.spans = []          # kept spans
        self.counts = dict.fromkeys(
            ("confine.steps", "confine.verdicts", "verify.passed",
             "detect_period.values", "eps.max_degree", "eps.max_coeff_bits",
             "eps.degree_overflows", "padic.fp_objects",
             "padic.check_odd_prime", "laguerre.hits", "laguerre.misses",
             "tau_det.hits", "tau_det.misses"), 0)
        self.request = 0
        self.next_id = 0
        self._saved = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, on_result=None, on_error=None):
        stack = self.stack
        calls, self_time = self.calls, self.self_time
        calls.setdefault(name, 0)
        self_time.setdefault(name, 0.0)
        keep = name in KEPT
        durations = self.durations.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outermost = parent is None or parent[1] != name
            self.next_id += 1
            frame = [0.0, name, self.next_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None and outermost:
                    on_error(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if outermost:
                    calls[name] += 1
                    if durations is not None:
                        durations.append(duration)
                if keep:
                    self.spans.append((frame[2], name, start, end,
                                       parent[2] if parent else None,
                                       self.request))
            if on_result is not None and outermost:
                on_result(result)
            return result

        wrapper.original = fn
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.original = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, module, attr, make):
        """Wrap module.attr and every other module binding of the same
        object (``from .module import attr``)."""
        original = getattr(module, attr)
        new = make(original)
        for mod in MODULES:
            for key, value in list(mod.__dict__.items()):
                if value is original:
                    self._set(mod, key, new)

    def _replace_method(self, cls, attr, make):
        self._set(cls, attr, make(cls.__dict__[attr]))

    def install(self):
        counts = self.counts
        fn, meth = self._replace_function, self._replace_method

        fn(cli, "main", lambda f: self.span("cli.main", f))

        def on_confine(report):
            counts["confine.steps"] += len(report.pole_orders)
            counts["confine.verdicts"] += not report.truncated

        def on_verify(ok):
            counts["verify.passed"] += bool(ok)

        fn(confinement, "confine",
           lambda f: self.span("confinement.confine", f, on_confine))
        fn(confinement, "verify_confinement_samples",
           lambda f: self.span("confinement.verify", f, on_verify))
        fn(confinement, "fits_fractional_linear",
           lambda f: self.span("confinement.fit", f))

        def on_eps(value):
            if isinstance(value, epsfield.EpsRational):
                degree = max(len(value.num.coeffs), len(value.den.coeffs)) - 1
                if degree > counts["eps.max_degree"]:
                    counts["eps.max_degree"] = degree

        for op in EPS_OPS:
            meth(epsfield.EpsRational, op,
                 lambda f: self.span("epsfield.op", f, on_eps))
        fn(epsfield, "poly_gcd", lambda f: self.span("epsfield.gcd", f))

        def on_step(pair):
            x = pair[0]
            if isinstance(x, epsfield.EpsRational):
                bits = max(max(c.numerator.bit_length(),
                               c.denominator.bit_length())
                           for c in x.num.coeffs + x.den.coeffs)
                if bits > counts["eps.max_coeff_bits"]:
                    counts["eps.max_coeff_bits"] = bits

        def on_step_error(exc):
            if isinstance(exc, DegreeOverflowError):
                counts["eps.degree_overflows"] += 1

        def step(f):
            return self.span("maps.step", f, on_step, on_step_error)

        for cls in (maps.DP2Map, maps.AnchoredDP2Map, maps.QRTMap):
            meth(cls, "step", step)
        fn(maps, "dp2_step", step)
        fn(maps, "qrt_step", step)

        fn(fpdynamics, "dp2_fp_pattern",
           lambda f: self.span("fpdynamics.pattern", f))

        def counted_values(f):
            def detect(values, p):
                def count(it):
                    for v in it:
                        counts["detect_period.values"] += 1
                        yield v
                return f(count(values), p)
            return self.span("fpdynamics.detect_period", detect)

        fn(fpdynamics, "detect_period", counted_values)

        fn(padic, "reduce_mod", lambda f: self.span("padic.reduce", f))
        fn(padic, "reduce_proj", lambda f: self.span("padic.reduce", f))
        fn(padic, "vp", lambda f: self.span("padic.vp", f))
        fn(padic, "check_odd_prime",
           lambda f: self.counter("padic.check_odd_prime", f))
        for cls in (padic.FpElem, padic.FpProj):
            meth(cls, "__post_init__",
                 lambda f: self.counter("padic.fp_objects", f))

        fn(tau, "laguerre", lambda f: self.span("tau.laguerre", f))
        fn(tau, "tau_det", lambda f: self.span("tau.tau_det", f))
        fn(tau, "det_fraction_free", lambda f: self.span("tau.det", f))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def harvest_caches(self):
        """Fold the Laguerre and determinant cache counters in; call after
        each traced request, with the caches cleared before it."""
        for key, f in (("laguerre", tau.laguerre), ("tau_det", tau.tau_det)):
            info = f.cache_info()
            self.counts[key + ".hits"] += info.hits
            self.counts[key + ".misses"] += info.misses

    def dump_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fields = ("id", "name", "start", "end", "parent", "request")
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, calls, st = self.counts, self.calls, self.self_time

        def q(name, pct):
            values = self.durations[name]
            if len(values) < 2:
                return values[0] * 1e6 if values else 0.0
            return statistics.quantiles(values, n=100)[pct - 1] * 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        confines = calls["confinement.confine"]
        verifies = calls["confinement.verify"]
        out = {
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.self_s": (st["cli.main"], "s"),
            "confinement.confine.calls": (confines, "count"),
            "confinement.confine.self_s": (st["confinement.confine"], "s"),
            "confinement.confine.p50_us": (q("confinement.confine", 50), "us"),
            "confinement.confine.p99_us": (q("confinement.confine", 99), "us"),
            "confinement.confine.steps": (c["confine.steps"], "count"),
            "confinement.verify.calls": (verifies, "count"),
            "confinement.verify.self_s": (st["confinement.verify"], "s"),
            "confinement.verify.pass_ratio":
                (ratio(c["verify.passed"], verifies), "ratio"),
            "confinement.fit.calls": (calls["confinement.fit"], "count"),
            "confinement.fit.self_s": (st["confinement.fit"], "s"),
            "confinement.verdict_ratio":
                (ratio(c["confine.verdicts"], confines), "ratio"),
            "epsfield.ops": (calls["epsfield.op"], "count"),
            "epsfield.self_s": (st["epsfield.op"] + st["epsfield.gcd"], "s"),
            "epsfield.gcd.calls": (calls["epsfield.gcd"], "count"),
            "epsfield.gcd.self_s": (st["epsfield.gcd"], "s"),
            "epsfield.max_degree": (c["eps.max_degree"], "count"),
            "epsfield.max_coeff_bits": (c["eps.max_coeff_bits"], "bits"),
            "epsfield.degree_overflows": (c["eps.degree_overflows"], "count"),
            "maps.step.calls": (calls["maps.step"], "count"),
            "maps.step.self_s": (st["maps.step"], "s"),
            "fpdynamics.pattern.calls": (calls["fpdynamics.pattern"], "count"),
            "fpdynamics.pattern.self_s": (st["fpdynamics.pattern"], "s"),
            "fpdynamics.pattern.p50_us": (q("fpdynamics.pattern", 50), "us"),
            "fpdynamics.detect_period.calls":
                (calls["fpdynamics.detect_period"], "count"),
            "fpdynamics.detect_period.self_s":
                (st["fpdynamics.detect_period"], "s"),
            "fpdynamics.detect_period.values":
                (c["detect_period.values"], "count"),
            "padic.reduce.calls": (calls["padic.reduce"], "count"),
            "padic.reduce.self_s": (st["padic.reduce"], "s"),
            "padic.vp.calls": (calls["padic.vp"], "count"),
            "padic.vp.self_s": (st["padic.vp"], "s"),
            "padic.fp_objects": (c["padic.fp_objects"], "count"),
            "padic.check_odd_prime.calls":
                (c["padic.check_odd_prime"], "count"),
        }
        for key in ("laguerre", "tau_det"):
            hits, misses = c[key + ".hits"], c[key + ".misses"]
            out[f"tau.{key}.calls"] = (calls["tau." + key], "count")
            out[f"tau.{key}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
            out[f"tau.{key}.self_s"] = (st["tau." + key], "s")
        out["tau.det.self_s"] = (st["tau.det"], "s")
        return out
