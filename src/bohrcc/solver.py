"""Radius equations for the four function classes and their solvers.

Each class pairs a nondecreasing left-hand side (a coefficient-majorant
growth integral in r) with a constant target (the distance from the
origin's image to the image boundary, through the class's extremal
member).  The class radius is the smallest positive root of lhs = target
in (0, 1); the usable radius is capped at 1/3.

  Ks  close-to-convex w.r.t. the odd starlike factor:
        lhs = integral_0^r M_phi(t)/(1-t^2) dt
        target = integral_0^1 phi(-t)/(1+t^2) dt
  Sc  starlike w.r.t. conjugate points:
        lhs = integral_0^r M_h(t) M_phi(t)/t dt        target = -h(-1)
  Cc  convex w.r.t. conjugate points:
        lhs = integral_0^r (1/s) integral_0^s M_{k'} M_phi dt ds
        target = -k(-1)
  Cs  convex w.r.t. symmetric points:
        lhs = integral_0^r (1/s) integral_0^s M_{K'} M_phi dt ds
        target = integral_0^1 (1/s) integral_0^s (k'(-t^2))^{1/2} phi(-t) dt ds

(M_f is the coefficient-modulus series of f; note M_h(t)/t = M_{k'}(t)
coefficientwise, so the Sc integrand is evaluated without the removable
singularity.)

Every integral has two independent evaluation routes: adaptive quadrature
over pointwise evaluators, and exact termwise integration of the majorant
series.  The two serve as each other's oracle in the test suite.  An
integrand binds per-spec closures (``phi_evaluator`` and its kin) when it
is made, so a quadrature node pays no family dispatch.  Root finding
uses both routes: the series curve (a lower bound, its coefficients being
nonnegative) hints the 1e-3 grid cell where the monotone lhs first reaches
the target, found by ``bisect_left`` over the grid indices on the curve's
Horner values (monotone in r, rounding included, for nonnegative coefficients).
Bisection of that cell lets the series decide each step whose distance
from the target exceeds the quadrature tolerance plus the series
truncation tail, and quadrature the rest; a quadrature bracket check at the
end certifies the result.  Only if it fails, or the curve stays below the
target, is the cell located with quadrature (``bisect_left`` over the grid
indices the hint narrows) and bisected on quadrature alone.  The closed-form
equations and threshold scans use the same ``_bisect``, the one bisection
loop; the Sc corollaries among them are the one equation h(r) = -h(-1) with
h bound once per spec by ``extremal.h_evaluator`` (M_h = h for nonnegative
coefficients).  Every result gets its sharpness verdict and notes from
``_radius_result``.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from . import power_series as ps
from .catalog import (
    FAMILIES,
    SPEC_CACHE_SIZE,
    PhiSpec,
    has_positive_coeffs,
    majorant_phi_evaluator,
    phi_evaluator,
    phi_series,
)
from .errors import InconsistencyError, NoRootError, ParameterError
from .extremal import build_extremal, growth_evaluator, h_at, h_evaluator, k_prime_evaluator
from .quadrature import DEFAULT_TOL, check_tol, integrate_1d, integrate_nested

_SCAN_STEP = 1e-3
_SCAN_LIMIT = 0.999
_BISECT_WIDTH = 1e-11
_SERIES_EVAL_TAIL = 1e-11
_ONE_THIRD = 1.0 / 3.0

#: Smallest series order a radius solve accepts: below it the truncated
#: series curves can misplace the root while their tail hints stay small.
MIN_ORDER = 8


def _scan_grid() -> tuple[float, ...]:
    """0, 1e-3, 2e-3, ..., 0.999, accumulated step by step: bisection
    starts from one of these cells, so its floats fix the radius bits."""
    grid = [0.0]
    while grid[-1] < _SCAN_LIMIT:
        grid.append(min(grid[-1] + _SCAN_STEP, _SCAN_LIMIT))
    return tuple(grid)


_SCAN_GRID = _scan_grid()
_LAST = len(_SCAN_GRID) - 1


class ClassId(enum.Enum):
    """The four function classes with a proved radius equation."""

    KS = "Ks"
    SC = "Sc"
    CC = "Cc"
    CS = "Cs"

    @classmethod
    def parse(cls, name: str) -> "ClassId":
        for member in cls:
            if member.value.lower() == str(name).lower():
                return member
        raise ParameterError(f"unknown class {name!r}; expected one of Ks, Sc, Cc, Cs")


_NESTED = (ClassId.CC, ClassId.CS)


# ---------------------------------------------------------------------------
# pointwise evaluators (quadrature route)
# ---------------------------------------------------------------------------


def _majorant_evaluator(series: ps.TruncatedSeries) -> Callable[[float], float]:
    """Pointwise evaluation of the coefficient-modulus series M_f."""
    return ps.evaluator(ps.majorant(series), _SERIES_EVAL_TAIL)


def lhs_integrand(
    class_id: ClassId, spec: PhiSpec, order: int = ps.DEFAULT_ORDER
) -> Callable[[float], float]:
    """The pointwise integrand of the class lhs.

    For Ks and Sc this is the full 1-D integrand; for Cc and Cs it is the
    inner integrand of the nested double integral.  All four equal 1 at
    t = 0.  Memoized by value, however the order is spelled.
    """
    return _lhs_integrand(class_id, spec, ps.as_order(order))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _lhs_integrand(class_id: ClassId, spec: PhiSpec, order: int) -> Callable[[float], float]:
    m_phi = majorant_phi_evaluator(spec)
    if class_id is ClassId.KS:
        return lambda t: m_phi(t) / (1.0 - t * t)
    if class_id is ClassId.CS:  # K' has mixed signs for every family
        m = _majorant_evaluator(build_extremal(spec, order).K_prime)
    elif has_positive_coeffs(spec):  # then M_{k'} = k', which has a closed or tabulated form
        m = k_prime_evaluator(spec)
    else:
        m = _majorant_evaluator(build_extremal(spec, order).k_prime)
    return lambda t: m(t) * m_phi(t)


def distance_integrand(class_id: ClassId, spec: PhiSpec) -> Callable[[float], float]:
    """Pointwise integrand of the distance bound for the classes whose
    target is itself an integral (Ks directly, Cs nested)."""
    phi = phi_evaluator(spec)
    if class_id is ClassId.KS:
        return lambda t: phi(-t) / (1.0 + t * t)
    if class_id is ClassId.CS:
        growth = growth_evaluator(spec)
        return lambda t: math.exp(0.5 * growth(-t * t)) * phi(-t)
    raise ParameterError(f"{class_id.value} has a boundary-value target, not an integral")


# ---------------------------------------------------------------------------
# series route (termwise integration of majorant series)
# ---------------------------------------------------------------------------


def _geometric_even(order: int, ratio: float = 1.0) -> ps.TruncatedSeries:
    """sum ratio^n z^{2n}: 1/(1 - ratio z^2)."""
    out = np.zeros(order)
    out[0::2] = ratio ** np.arange(out[0::2].size)
    return ps.TruncatedSeries(out)


def nested_series_transform(c: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """Termwise image of c under f -> integral_0^r (1/s) integral_0^s f:
    coefficient c_n lands on z^{n+1} with weight 1/(n+1)^2."""
    return ps.integrate_from_zero(ps.divide_by_z(ps.integrate_from_zero(c)))


def _series_lhs_curve(class_id: ClassId, spec: PhiSpec, order: int) -> ps.TruncatedSeries:
    m_phi = ps.majorant(phi_series(spec, order))
    if class_id is ClassId.KS:
        return ps.integrate_from_zero(ps.mul(m_phi, _geometric_even(order)))
    es = build_extremal(spec, order)
    if class_id is ClassId.SC:
        return ps.integrate_from_zero(ps.mul(ps.majorant(es.k_prime), m_phi))
    if class_id is ClassId.CC:
        return nested_series_transform(ps.mul(ps.majorant(es.k_prime), m_phi))
    return nested_series_transform(ps.mul(ps.majorant(es.K_prime), m_phi))


def _series_distance_curve(class_id: ClassId, spec: PhiSpec, order: int) -> ps.TruncatedSeries:
    phi_neg = ps.reflect(phi_series(spec, order))
    if class_id is ClassId.KS:
        return ps.integrate_from_zero(ps.mul(phi_neg, _geometric_even(order, -1.0)))
    if class_id is ClassId.CS:
        es = build_extremal(spec, order)
        kp_neg_sq = ps.compose_with_selfmap(es.k_prime, ps.monomial(-1.0, 2, order))
        return nested_series_transform(ps.mul(ps.sqrt_series(kp_neg_sq), phi_neg))
    raise ParameterError(f"{class_id.value} has a boundary-value target, not an integral")


def lhs_at(
    class_id: ClassId,
    spec: PhiSpec,
    r: float,
    method: str = "quadrature",
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> float:
    """The class lhs at radius r by either evaluation route."""
    if method == "series":
        return ps.eval_at(_series_lhs_curve(class_id, spec, order), r)
    if method != "quadrature":
        raise ParameterError(f"unknown method {method!r}")
    if class_id in _NESTED:
        return integrate_nested(lhs_integrand(class_id, spec, order), r, tol).value
    return integrate_1d(lhs_integrand(class_id, spec, order), 0.0, r, tol).value


def distance_integral_at(
    class_id: ClassId,
    spec: PhiSpec,
    r: float,
    method: str = "quadrature",
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> float:
    """The distance-bound integral at radius r (Ks and Cs only)."""
    if method == "series":
        return ps.eval_at(_series_distance_curve(class_id, spec, order), r)
    if method != "quadrature":
        raise ParameterError(f"unknown method {method!r}")
    if class_id is ClassId.CS:
        return integrate_nested(distance_integrand(class_id, spec), r, tol).value
    return integrate_1d(distance_integrand(class_id, spec), 0.0, r, tol).value


def target_constant(
    class_id: ClassId, spec: PhiSpec, order: int = ps.DEFAULT_ORDER, tol: float = DEFAULT_TOL
) -> float:
    """The class's lower bound on the distance from f(0) to the image
    boundary: an integral to 1 for Ks/Cs, a boundary value for Sc/Cc.
    Memoized by value, however the order and tolerance are spelled."""
    return _target_constant(class_id, spec, ps.as_order(order), check_tol(tol))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _target_constant(class_id: ClassId, spec: PhiSpec, order: int, tol: float) -> float:
    es = build_extremal(spec, order)
    if class_id is ClassId.SC:
        target = -es.h_at_minus_one
    elif class_id is ClassId.CC:
        target = -es.k_at_minus_one
    else:
        target = distance_integral_at(class_id, spec, 1.0, tol=tol)
    if not (target > 0.0):
        raise InconsistencyError(f"target must be positive, got {target}")
    return target


# ---------------------------------------------------------------------------
# radius results and the series-guided, quadrature-certified solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusResult:
    """Solved radius with the 1/3 cap and the sharpness verdict."""

    r_f: float
    capped: float
    sharp: bool
    residual: float
    bracket: tuple[float, float]
    notes: str

    def __post_init__(self):
        if not (0.0 < self.r_f < 1.0):
            raise InconsistencyError(f"radius {self.r_f} outside (0, 1)")
        if self.residual > 1e-8:
            raise InconsistencyError(f"radius residual {self.residual:.3g} exceeds 1e-8")

    def to_dict(self) -> dict:
        return {
            "r_f": self.r_f,
            "capped": self.capped,
            "sharp": self.sharp,
            "residual": self.residual,
            "bracket": list(self.bracket),
            "notes": self.notes,
        }


def _first_reached(f: Callable[[float], float], target: float, lo: int = 0, hi: int = _LAST):
    """The first scan-grid index i in (lo, hi] with f(g[i]) >= target for a
    nondecreasing f with f(g[lo]) < target, by bisection over the indices,
    or None when f(g[hi]) stays below the target."""
    if f(_SCAN_GRID[hi]) < target:
        return None
    return bisect_left(_SCAN_GRID, True, lo + 1, hi, key=lambda r: f(r) >= target)


def _locate_cell(lhs: Callable[[float], float], target: float, hint: int | None):
    """The first scan-grid cell (g[i-1], g[i]) with lhs(g[i-1]) < target <=
    lhs(g[i]) for a nondecreasing lhs with lhs(0) = 0, or None when lhs(0.999)
    stays below the target.

    ``hint`` is the index i a lower bound on the lhs suggests; when it is
    right the cell costs two evaluations, otherwise a binary search over the
    grid indices it narrows.
    """
    lo, hi = 0, _LAST
    if hint is not None:
        if lhs(_SCAN_GRID[hint]) < target:
            lo = hint
        elif lhs(_SCAN_GRID[hint - 1]) < target:
            lo, hi = hint - 1, hint
        else:
            hi = hint - 1
    i = _first_reached(lhs, target, lo, hi)
    return None if i is None else (_SCAN_GRID[i - 1], _SCAN_GRID[i])


def _bisect(reached: Callable[[float], bool], lo: float, hi: float, width: float = _BISECT_WIDTH):
    """Halve [lo, hi] down to ``width`` around the first point where the
    monotone predicate holds, keeping reached(hi) and not reached(lo)."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _radius_result(
    class_id: ClassId,
    spec: PhiSpec,
    lhs: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
) -> RadiusResult:
    """The result for a final bracket [lo, hi] of lhs = target.

    Sharpness is only claimed where it is proved: the Sc class with a
    nonnegative coefficient spec (so that M_h = h) and a root at or below
    1/3, where the extremal member itself attains the bound.  Other results
    are lower bounds on the class Bohr radius.
    """
    r_f = 0.5 * (lo + hi)
    residual = abs(lhs(r_f) - target)
    sharp = bool(
        class_id is ClassId.SC and has_positive_coeffs(spec) and r_f <= _ONE_THIRD + 1e-12
    )
    if sharp:
        notes = "sharp: the extremal member attains the coefficient bound at r_f"
    elif class_id is ClassId.SC and r_f > _ONE_THIRD:
        notes = (
            "root exceeds 1/3; the coefficient inequality holds for r <= 1/3 "
            "(capped radius governs)"
        )
    elif r_f > _ONE_THIRD:
        notes = (
            "lower bound on the class Bohr radius (no sharpness claim); "
            "the coefficient inequality holds for r <= 1/3"
        )
    else:
        notes = "lower bound on the class Bohr radius (no sharpness claim)"
    return RadiusResult(
        r_f=float(r_f),
        capped=min(_ONE_THIRD, float(r_f)),
        sharp=sharp,
        residual=float(residual),
        bracket=(float(lo), float(hi)),
        notes=notes,
    )


def solve_radius(
    class_id: ClassId,
    spec: PhiSpec,
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> RadiusResult:
    """Smallest positive root of the class radius equation, capped at 1/3,
    with the sharpness verdict of :func:`_radius_result`.  The series order
    must be at least :data:`MIN_ORDER`."""
    order = ps.as_order(order)
    if order < MIN_ORDER:
        raise ParameterError(f"order must be at least {MIN_ORDER}, got {order}")
    return _solve_cached(class_id, spec, order, check_tol(tol))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _solve_cached(class_id: ClassId, spec: PhiSpec, order: int, tol: float) -> RadiusResult:
    target = target_constant(class_id, spec, order, tol)
    curve = _series_lhs_curve(class_id, spec, order)
    series = ps.evaluator(curve)
    lhs = cache(lambda r: lhs_at(class_id, spec, r, "quadrature", order, tol))

    def guided(r: float) -> float:
        # quadrature and series differ by up to tol plus the truncation tail
        s = series(r)
        return s if abs(s - target) > tol + ps.tail_hint_at(curve, r) else lhs(r)

    # the curve's coefficients are nonnegative, so its Horner values rise
    # with r on the grid even in floating point and bisection finds the
    # first grid point where it reaches the target
    hint = _first_reached(series, target)
    if hint is not None:
        # a certified bracket here is the one the quadrature-only path gives
        lo, hi = _bisect(lambda r: guided(r) >= target, _SCAN_GRID[hint - 1], _SCAN_GRID[hint])
        if lhs(lo) < target <= lhs(hi):
            return _radius_result(class_id, spec, lhs, target, lo, hi)
    cell = _locate_cell(lhs, target, hint)
    if cell is None:
        raise NoRootError(
            f"{class_id.value} lhs for {spec.label()} stays below its target on "
            f"(0, {_SCAN_LIMIT}]: lhs({_SCAN_LIMIT}) = {lhs(_SCAN_LIMIT):.10g} < "
            f"target {target:.10g}, so any root lies beyond {_SCAN_LIMIT}"
        )
    lo, hi = _bisect(lambda r: lhs(r) >= target, *cell)
    return _radius_result(class_id, spec, lhs, target, lo, hi)


# ---------------------------------------------------------------------------
# closed-form corollary equations
# ---------------------------------------------------------------------------


def _ks_sakaguchi_parts(spec: PhiSpec):
    (gamma,) = spec.params
    lhs = lambda r: gamma / 2.0 * math.log((1.0 + r) / (1.0 - r)) + (1.0 - gamma) * r / (1.0 - r)
    rhs = (1.0 - gamma) / 2.0 * math.log(2.0) + gamma * math.pi / 4.0
    return lhs, rhs


def _ks_wang_parts(spec: PhiSpec):
    alpha, beta = spec.params
    f = lambda t: (1.0 + beta * t) / ((1.0 - alpha * beta * t) * (1.0 - t * t))
    g = lambda t: (1.0 - beta * t) / ((1.0 + alpha * beta * t) * (1.0 + t * t))
    lhs = lambda r: integrate_1d(f, 0.0, r, 1e-13).value
    return lhs, integrate_1d(g, 0.0, 1.0, 1e-13).value


def _sc_sakaguchi_parts(spec: PhiSpec):
    (gamma,) = spec.params
    e = 1.0 / (2.0 * (1.0 - gamma))
    lhs = lambda r: r + 2.0 * r**e
    return lhs, 1.0


def _sc_growth_parts(spec: PhiSpec):
    # nonnegative coefficients make M_h = h, so the equation is h(r) = -h(-1)
    # for the extremal growth, pointwise from the spec
    h = h_evaluator(spec)
    return h, -h(-1.0)


#: equation id -> (class, family, parts builder on the spec, fixed parameters)
CLOSED_FORM_EQUATIONS: Mapping[str, tuple] = {
    "ks-sakaguchi": (ClassId.KS, "sakaguchi", _ks_sakaguchi_parts, {}),
    "ks-wang": (ClassId.KS, "wang", _ks_wang_parts, {}),
    "sc-lemniscate": (ClassId.SC, "lemniscate", _sc_growth_parts, {}),
    "sc-sakaguchi": (ClassId.SC, "sakaguchi", _sc_sakaguchi_parts, {}),
    "sc-expblend": (ClassId.SC, "expblend", _sc_growth_parts, {}),
    "sc-janowski-b0": (ClassId.SC, "janowski", _sc_growth_parts, {"B": 0.0}),
    "sc-janowski": (ClassId.SC, "janowski", _sc_growth_parts, {}),
}


def _free_names(equation_id: str) -> tuple[str, ...]:
    """The family's parameter names that the equation does not fix."""
    _, family, _, fixed = CLOSED_FORM_EQUATIONS[equation_id]
    return tuple(n for n in FAMILIES[family] if n not in fixed)


def _closed_form_spec(equation_id: str, params: Mapping[str, float]) -> PhiSpec:
    """The equation's spec: its free parameters read from params, the rest fixed."""
    _, family, _, fixed = CLOSED_FORM_EQUATIONS[equation_id]
    names = _free_names(equation_id)
    missing = [n for n in names if n not in params]
    if missing:
        raise ParameterError(f"{equation_id} needs parameters {names}, missing {missing}")
    return PhiSpec(family, tuple({**params, **fixed}[n] for n in FAMILIES[family]))


def solve_corollary_closed_form(equation_id: str, params: Mapping[str, float]) -> RadiusResult:
    """Solve one of the catalog's closed-form radius equations.

    These are independent fast paths: they must agree with the general
    solver on the corresponding (class, spec) pair to 1e-7.  When the
    root exceeds 1/3 the result notes that the capped radius governs.
    """
    if equation_id not in CLOSED_FORM_EQUATIONS:
        raise ParameterError(
            f"unknown equation {equation_id!r}; expected one of {sorted(CLOSED_FORM_EQUATIONS)}"
        )
    class_id, _, parts_builder, _ = CLOSED_FORM_EQUATIONS[equation_id]
    spec = _closed_form_spec(equation_id, params)  # validates ranges
    if equation_id == "sc-janowski" and params["B"] >= 0.0:
        # B > 0 gives phi mixed-sign coefficients: the class lhs is then M_h(r), not h(r)
        raise ParameterError(
            "sc-janowski requires B < 0; use sc-janowski-b0 for B = 0, solve_radius for B > 0"
        )
    lhs, rhs = parts_builder(spec)
    # walk the upper end toward 1 only as far as needed; several lhs have
    # a pole at 1 that the quadrature-backed variants should not probe
    hi = 0.9
    while lhs(hi) - rhs < 0.0:
        if 1.0 - hi < 1e-9:
            raise NoRootError(f"{equation_id} equation shows no root in (0, 1)")
        hi = 1.0 - 0.25 * (1.0 - hi)
    lo, hi = _bisect(lambda r: lhs(r) >= rhs, 0.0, hi, 1e-12)
    return _radius_result(class_id, spec, lhs, rhs, lo, hi)


# ---------------------------------------------------------------------------
# sharpness witness and threshold scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """Evidence that a sharp radius cannot be enlarged."""

    radius: float
    value_at_radius: float
    bound: float
    delta: float
    value_beyond: float | None
    exceeds_beyond: bool | None

    @property
    def ok(self) -> bool:
        attained = abs(self.value_at_radius - self.bound) <= 1e-7
        return attained and (self.exceeds_beyond is not False)


def sharpness_witness(
    class_id: ClassId,
    spec: PhiSpec,
    result: RadiusResult,
    delta: float = 0.01,
) -> WitnessReport:
    """Check that the extremal member attains the bound at r_f and
    strictly exceeds it at r_f + delta."""
    if class_id is not ClassId.SC or not result.sharp:
        raise ParameterError("sharpness witness applies to sharp Sc results only")
    if delta < 0.0:
        raise ParameterError("delta must be nonnegative")
    bound = -h_at(spec, -1.0)
    value = h_at(spec, result.r_f)  # positive coefficients: M_h(r) == h(r)
    if abs(value - bound) > 1e-7:
        raise InconsistencyError(
            f"extremal value {value!r} misses the bound {bound!r} at r_f={result.r_f!r}; "
            "solver or extremal-function bug"
        )
    value_beyond = None
    exceeds = None
    if delta > 0.0 and result.r_f + delta < 1.0:
        value_beyond = h_at(spec, result.r_f + delta)
        exceeds = bool(value_beyond > bound)
    return WitnessReport(result.r_f, value, bound, delta, value_beyond, exceeds)


@dataclass(frozen=True)
class ThresholdRow:
    param: float
    r_f: float
    in_sharp_window: bool


@dataclass(frozen=True)
class ThresholdScan:
    equation_id: str
    rows: tuple[ThresholdRow, ...]
    bracket: tuple[float, float] | None  # grid pair where the 1/3 crossing sits
    threshold: float | None  # refined crossing parameter


#: the closed-form equations with one parameter, the ones a scan can sweep
SCAN_EQUATIONS = tuple(sorted(e for e in CLOSED_FORM_EQUATIONS if len(_free_names(e)) == 1))


def threshold_scan(equation_id: str, params: Sequence[float]) -> ThresholdScan:
    """Sweep a monotone parameter grid, reporting the radius and whether
    it falls in the sharp window (0, 1/3), then bracket and refine the
    parameter where the radius crosses 1/3."""
    if equation_id not in SCAN_EQUATIONS:
        raise ParameterError(
            f"scan needs a one-parameter equation, got {equation_id!r}; expected one of "
            f"{list(SCAN_EQUATIONS)}"
        )
    parts_builder = CLOSED_FORM_EQUATIONS[equation_id][2]
    (name,) = _free_names(equation_id)
    grid = [float(p) for p in params]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("parameter grid must be increasing with at least two points")
    radii = [solve_corollary_closed_form(equation_id, {name: p}).r_f for p in grid]
    rows = tuple(ThresholdRow(p, rf, rf < _ONE_THIRD) for p, rf in zip(grid, radii))
    bracket = None
    for a, b in zip(rows, rows[1:]):
        if a.in_sharp_window != b.in_sharp_window:
            bracket = (a.param, b.param)
            break
    threshold = None
    if bracket is not None:

        def g(p: float) -> float:  # > 0 iff r_f(p) < 1/3, the lhs being increasing in r
            lhs, rhs = parts_builder(_closed_form_spec(equation_id, {name: p}))
            return lhs(_ONE_THIRD) - rhs

        g_lo = g(bracket[0])
        lo, hi = _bisect(lambda p: g(p) * g_lo <= 0.0, *bracket, 1e-9)
        threshold = 0.5 * (lo + hi)
    return ThresholdScan(equation_id, rows, bracket, threshold)
