"""Singularity confinement over the perturbation field.

A reduced singular point is lifted to ``x = s + e`` (optionally ``y = y0 + e``
for a doubly singular point, sharing the one formal parameter), the map is
iterated in exact ``EpsRational`` arithmetic, and the engine looks for the
first iterate whose limit at e = 0 exists and is p-integral in both
coordinates.  That iterate count is the confinement length m, and the
projective reduction of the limit is the confined image.  Each step reads
the reductions off the integer pairs (``EpsRational.proj0``): a pole or a
limit with negative valuation reduces to infinity, so a step confines
exactly when both reductions are finite.

The image is the same for every lift e in pZ_p when the confined pair of
integer polynomials passes ``EpsRational.reduces_uniformly``: a proof for
all lifts, which ``confine`` records as ``certified``.  A record it does not
certify is tested on plain rational orbits instead: substituting
e = c * p**k for nine small (c, k) choices and iterating over Q must
reproduce the image after m steps.  Disagreement marks the report as
ambiguous rather than guessing which lift is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import count, islice

from .epsfield import EpsRational
from .errors import DegreeOverflowError, DivisionByZeroError
from .padic import FpProj, reduce_proj


class ConfinementStatus(Enum):
    CONFINED = "CONFINED"
    NOT_CONFINED = "NOT_CONFINED"
    DEGREE_OVERFLOW = "DEGREE_OVERFLOW"


@dataclass(frozen=True)
class SingularLift:
    """Exact lift of a reduced singular point.

    ``s`` is the singular x-coordinate (e.g. 1, -1 or 0), ``y0`` the
    companion coordinate, ``n0`` the starting time step.  ``perturb_y``
    adds the same formal parameter to y, the convention for a doubly
    singular point.
    """

    s: Fraction
    y0: Fraction
    n0: int = 0
    perturb_y: bool = False


@dataclass
class ConfinementReport:
    """Outcome of one confinement run.

    ``pole_orders`` records ord0 of the x-coordinate per step (diagnostics);
    ``x_trace`` the per-step projective reduction of the x-limit (infinity
    for poles), so ``x_trace[-1]`` equals the confined x-image.  ``truncated``
    marks a search ended early by the degree bound; it is set exactly when
    the status is DEGREE_OVERFLOW, and the traces then stop at the last
    step computed.  ``certified`` marks a CONFINED report whose image every
    lift e in pZ_p reduces to wherever the orbit is defined: both
    coordinates pass ``EpsRational.reduces_uniformly``.
    """

    status: ConfinementStatus
    m: int | None = None
    image: tuple[FpProj, FpProj] | None = None
    pole_orders: list = field(default_factory=list)
    x_trace: list = field(default_factory=list)
    truncated: bool = False
    certified: bool = False


_EPS = EpsRational.eps()


def _window_runner(map_family, lift: SingularLift):
    """The exact model iterated for one run: families may refine their
    coefficient lifts per window (dP-II does), others run as given."""
    refine = getattr(map_family, "window_map", None)
    return refine(lift) if refine is not None else map_family


def confine(map_family, lift: SingularLift, max_steps: int = 30) -> ConfinementReport:
    """Iterate the lifted point and find the confinement length.

    Returns CONFINED with the smallest m <= max_steps such that both
    coordinates are regular at e = 0 and both limits have nonnegative
    valuation, together with the reduced image and whether it is certified
    independent of the lift.  If the degree bound fires first, the search
    is cut short and the report is DEGREE_OVERFLOW with ``truncated`` set,
    whatever poles the orbit has shown: a budget hit is not a verdict.
    Otherwise NOT_CONFINED after max_steps, with the pole-order trace.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    p = map_family.p
    runner = _window_runner(map_family, lift)
    x = _EPS + lift.s
    y = _EPS + lift.y0 if lift.perturb_y else EpsRational.from_const(lift.y0)

    pole_orders: list = []
    x_trace: list[FpProj] = []
    for j in range(1, max_steps + 1):
        try:
            x, y = runner.step(x, y, lift.n0 + j - 1)
        except DegreeOverflowError:
            return ConfinementReport(status=ConfinementStatus.DEGREE_OVERFLOW,
                                     pole_orders=pole_orders,
                                     x_trace=x_trace, truncated=True)
        pole_orders.append(x.ord0())
        image = (x.proj0(p), y.proj0(p))
        x_trace.append(image[0])
        # A finite reduction is a regular limit with nonnegative valuation.
        if not image[0].is_infinity and not image[1].is_infinity:
            certified = x.reduces_uniformly(p) and y.reduces_uniformly(p)
            return ConfinementReport(status=ConfinementStatus.CONFINED,
                                     m=j, image=image,
                                     pole_orders=pole_orders,
                                     x_trace=x_trace, certified=certified)
    return ConfinementReport(status=ConfinementStatus.NOT_CONFINED,
                             pole_orders=pole_orders, x_trace=x_trace)


def sample_images(map_family, lift: SingularLift, m: int):
    """Reductions of exact rational orbits, m steps from the lifts
    e = c * p**k.

    Yields ((c, k), image) for k = 1, 2, 3 within c = 1, 2, 3, ... in turn,
    so the first nine are the classic sample set.  The image is None where
    the orbit over Q hits an exact singularity: it is undefined at that
    lift.  The generator never ends; take what is needed.
    """
    p = map_family.p
    runner = _window_runner(map_family, lift)
    for c in count(1):
        for k in (1, 2, 3):
            e = Fraction(c * p**k)
            x = lift.s + e
            y = lift.y0 + e if lift.perturb_y else lift.y0
            try:
                for j in range(m):
                    x, y = runner.step(x, y, lift.n0 + j)
            except DivisionByZeroError:
                yield (c, k), None
                continue
            yield (c, k), (reduce_proj(x, p), reduce_proj(y, p))


def verify_confinement_samples(map_family, lift: SingularLift,
                               report: ConfinementReport) -> bool:
    """Exact-rational agreement test for a CONFINED report.

    Takes the first nine lifts of ``sample_images`` at which the orbit is
    defined and demands that every one reduces to the reported image.  A
    lift that hits an exact singularity is replaced by the next one, not
    counted as a disagreement; the orbit of a confined run is undefined at
    only finitely many lifts, so the search ends.
    """
    if report.status is not ConfinementStatus.CONFINED:
        return False
    defined = (image for _, image in sample_images(map_family, lift, report.m)
               if image is not None)
    return all(image == report.image for image in islice(defined, 9))


def fits_fractional_linear(samples, p: int) -> bool:
    """Whether samples (residue, projective value) lie on one map
    y -> (a*y + b)/(c*y + d) over F_p, defined at every sample point.

    Such a map is a constant (infinity included) or a Moebius map in
    PGL_2(F_p).  PGL_2(F_p) acts sharply 3-transitively on P^1(F_p), so
    three samples with distinct values fix the map, and each further sample
    must keep the cross-ratio of the first three.  The residues must be
    distinct: the cross-ratio test is wrong on repeated residues.
    """
    ys = [y % p for y, _ in samples]
    if len(set(ys)) < len(ys):
        raise ValueError("fits_fractional_linear needs distinct residues")
    vs = [v.residue for _, v in samples]
    distinct = len(set(vs))
    if distinct <= 1:
        return True
    if distinct < len(vs):
        return False
    if len(vs) <= 3:
        return True
    # Projective pairs: (y : 1), (v : 1), and (1 : 0) for infinity.
    pts = [((y, 1), (1, 0) if v is None else (v, 1)) for y, v in zip(ys, vs)]

    def br(u, w):
        return u[0] * w[1] - w[0] * u[1]

    (y1, v1), (y2, v2), (y3, v3) = pts[:3]
    return all((br(y1, y3) * br(y2, y) * br(v1, v) * br(v2, v3)
                - br(v1, v3) * br(v2, v) * br(y1, y) * br(y2, y3)) % p == 0
               for y, v in pts[3:])


@dataclass
class ScanRecord:
    """One confinement run of a scan; ``lift`` is the lift it ran from."""

    point: str
    y_residue: int
    n: int
    report: ConfinementReport
    sampling_ok: bool | None = None
    lift: SingularLift | None = None


@dataclass
class ScanResult:
    """Outcome of a full singular-point scan for one map family."""

    records: list
    all_confined: bool
    closed_form_ok: bool
    ambiguous: bool

    @property
    def has_agr(self) -> bool:
        """Reduction commutes with some iterate everywhere on the scan and
        the images assemble into single closed forms in the companion
        residue."""
        return self.all_confined and self.closed_form_ok and not self.ambiguous


MAX_SCAN_PRIME = 101

# The largest ``max_steps`` a scan takes.  A scan's records keep a pole
# order per step; at p = 5, max_steps = 1000 on the map (1/x, x) takes
# 0.3 s and writes 69 kB of JSON.
MAX_SCAN_STEPS = 1000


def agr_scan(map_family, max_steps: int = 30) -> ScanResult:
    """Run confinement at every reduced singular point of the family.

    One record per (singular point, companion residue, time step).  The
    scan then checks, for each (point, n, m) group, that the confined
    images depend on the companion residue through a single fractional
    linear formula.  A CONFINED record is lift-independent
    (``sampling_ok`` True) when ``confine`` certified it; otherwise it runs
    the nine-sample exact-rational agreement test, and a disagreement makes
    the scan ambiguous.
    """
    p = map_family.p
    if p > MAX_SCAN_PRIME:
        raise ValueError(f"scan guarded to p <= {MAX_SCAN_PRIME}")
    if max_steps > MAX_SCAN_STEPS:
        raise ValueError(f"scan guarded to max_steps <= {MAX_SCAN_STEPS}")
    records = []
    for label, y_res, n, s, y0, perturb_y in map_family.scan_points():
        lift = SingularLift(s=s, y0=y0, n0=n, perturb_y=perturb_y)
        try:
            report = confine(map_family, lift, max_steps=max_steps)
        except DivisionByZeroError:
            if getattr(map_family, "kind", None) != "custom":
                raise
            # The x-perturbation alone left a denominator identically zero
            # (a doubly singular custom point); share the parameter with y.
            lift = SingularLift(s=s, y0=y0, n0=n, perturb_y=True)
            report = confine(map_family, lift, max_steps=max_steps)
        sampling_ok = None
        if report.certified:
            sampling_ok = True
        elif report.status is ConfinementStatus.CONFINED:
            sampling_ok = verify_confinement_samples(map_family, lift, report)
        records.append(ScanRecord(point=label, y_residue=y_res, n=n,
                                  report=report, sampling_ok=sampling_ok,
                                  lift=lift))

    all_confined = all(r.report.status is ConfinementStatus.CONFINED
                       for r in records)
    ambiguous = any(r.sampling_ok is False for r in records)

    closed_form_ok = True
    groups: dict = {}
    for r in records:
        if r.report.status is ConfinementStatus.CONFINED:
            groups.setdefault((r.point, r.n, r.report.m), []).append(r)
    for group in groups.values():
        for coord in (0, 1):
            samples = [(r.y_residue, r.report.image[coord]) for r in group]
            if not fits_fractional_linear(samples, p):
                closed_form_ok = False
    return ScanResult(records=records, all_confined=all_confined,
                      closed_form_ok=closed_form_ok, ambiguous=ambiguous)
