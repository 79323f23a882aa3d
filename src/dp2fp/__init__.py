"""Exact arithmetic for the discrete Painleve II equation.

The package computes over Q with p-adic valuations, runs the singularity
confinement test in an exact perturbation field, evolves the recurrence
directly over the projective line of a prime field, and builds the
determinant family of rational solutions.

``import dp2fp`` loads no submodule.  Each public name below loads its
home module on first use (PEP 562), and ``dp2fp.<submodule>`` loads that
submodule.  Names are looked up in their home module on every access, so
a rebinding there is seen here too.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "confinement": ("ConfinementReport", "ConfinementStatus", "ScanRecord",
                    "ScanResult", "SingularLift", "agr_scan", "confine",
                    "sample_images", "verify_confinement_samples"),
    "epsfield": ("EpsPoly", "EpsRational", "degree_limit"),
    "errors": ("Dp2Error",),
    "fpdynamics": ("detect_period", "dp2_fp_pattern", "iterate_dp2_residues"),
    "maps": ("DP2Map", "DP2Params", "QRTMap", "QRTParams", "build_dp2_params",
             "dp2_scalar_residual", "dp2_step", "qrt_step"),
    "mapexpr": ("CustomMap", "parse_map_expr", "print_map_expr"),
    "padic": ("PLUS_INFINITY", "FpElem", "FpProj", "is_odd_prime",
              "parse_rational", "pnorm", "reduce_mod", "reduce_proj", "vp"),
    "tau": ("TauParams", "laguerre", "rational_u", "reduced_solution",
            "tau_det", "taucond"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {"cli", *_EXPORTS}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__),
                       name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
