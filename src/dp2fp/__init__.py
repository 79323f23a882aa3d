"""Exact arithmetic for the discrete Painleve II equation.

The package computes over Q with p-adic valuations, runs the singularity
confinement test in an exact perturbation field, evolves the recurrence
directly over the projective line of a prime field, and builds the
determinant family of rational solutions.
"""

from .confinement import (
    ConfinementReport,
    ConfinementStatus,
    ScanRecord,
    ScanResult,
    SingularLift,
    agr_scan,
    confine,
    sample_images,
    verify_confinement_samples,
)
from .epsfield import EpsPoly, EpsRational, degree_limit
from .errors import Dp2Error
from .fpdynamics import detect_period, dp2_fp_pattern, iterate_dp2_residues
from .maps import (
    DP2Map,
    DP2Params,
    QRTMap,
    QRTParams,
    build_dp2_params,
    dp2_scalar_residual,
    dp2_step,
    qrt_step,
)
from .mapexpr import CustomMap, parse_map_expr, print_map_expr
from .padic import (
    PLUS_INFINITY,
    FpElem,
    FpProj,
    is_odd_prime,
    parse_rational,
    pnorm,
    reduce_mod,
    reduce_proj,
    vp,
)
from .tau import TauParams, laguerre, rational_u, reduced_solution, tau_det, taucond

__version__ = "0.1.0"

__all__ = [
    "ConfinementReport", "ConfinementStatus", "ScanRecord", "ScanResult",
    "SingularLift", "agr_scan", "confine", "sample_images",
    "verify_confinement_samples",
    "EpsPoly", "EpsRational", "degree_limit",
    "Dp2Error",
    "detect_period", "dp2_fp_pattern", "iterate_dp2_residues",
    "DP2Map", "DP2Params", "QRTMap", "QRTParams", "build_dp2_params",
    "dp2_scalar_residual", "dp2_step", "qrt_step",
    "CustomMap", "parse_map_expr", "print_map_expr",
    "PLUS_INFINITY", "FpElem", "FpProj", "is_odd_prime",
    "parse_rational", "pnorm", "reduce_mod", "reduce_proj", "vp",
    "TauParams", "laguerre", "rational_u", "reduced_solution", "tau_det",
    "taucond",
]
