"""Radius equations for the four function classes and their solvers.

Each class pairs a nondecreasing left-hand side (a coefficient-majorant
growth integral in r) with a constant target (the distance from the
origin's image to the image boundary, through the class's extremal
member).  The class radius is the smallest positive root of lhs = target
in (0, 1); the usable radius is capped at 1/3.

A class member is f = T(K p) with p = phi o w subordinate to phi, for a
class kernel K and a transform T:

  class  K            T                                       target
  Ks     1/(1-z^2)    integral_0^r                            T(K(it) phi(-t)) at 1
  Sc     k'           integral_0^r                            -h(-1)
  Cc     k'           integral_0^r (1/s) integral_0^s         -k(-1)
  Cs     K'           integral_0^r (1/s) integral_0^s         T(K(it) phi(-t)) at 1

(Ks: close-to-convex w.r.t. the odd starlike factor; Sc and Cc: starlike
and convex w.r.t. conjugate points; Cs: convex w.r.t. symmetric points.)
``kernel_series`` is the one place that knows K and ``ClassId`` the one
place that knows T: ``nested`` says which T, and ``transform`` applies it
termwise to coefficient arrays, for the series curve here and the members
in ``verifier``; k' and K' = (k'(t^2))^{1/2} come from the extremal
bundle.  The lhs is T(M_K M_phi) at r, with M_f the coefficient-modulus
series of f (M_{k'} = M_h/t, so the Sc integrand has no removable
singularity).  K is even for Ks and Cs, so K(it) is K with the sign (-1)^n
on t^{2n}: 1/(1+t^2) and (k'(-t^2))^{1/2}.

The lhs keeps two evaluation routes in production: exact termwise
integration of its majorant series (the root search's hint) and adaptive
quadrature over pointwise evaluators (its certificate).  The quadrature
integrand reads M_K from the spec where phi has nonnegative coefficients,
for then so does K and M_K = K: 1/(1-t^2), k', or K'(t) = exp(G(t^2)/2)
with G the growth exponent, as the Cs target reads it at -t^2.  So the
certificate does not depend on the series order; only a mixed-sign phi (in
this catalog, Janowski with B > 0) reads M_K from the order-N series.  The
distance integral has one route, quadrature; its series oracle lives in the
test suite's ``routes.py``.  An integrand binds per-spec closures
(``phi_evaluator`` and its kin) when it is made, so a quadrature node pays
no family dispatch.  Root finding uses both routes: the series curve (a
lower bound, its coefficients being nonnegative) hints the 1e-3 grid cell
where the monotone lhs first reaches the target, found by ``bisect_left``
over the grid indices (``_first_reached``) on the curve's Horner values
(monotone in r, rounding included, for nonnegative coefficients).
Bisection of that cell lets the series decide each step whose distance
from the target exceeds a rounding margin plus the series truncation tail,
and quadrature the rest; a quadrature bracket check at the end certifies
the result.  A step the series decides against the quadrature lhs leaves
a bracket end on the wrong side of the target, which the check rejects,
so the margin sets only how often the fallback runs, never a bit, and it
does not read the tolerance, which sets quadrature accuracy alone.  Only if
the check fails, or the curve stays below the target, does
``_first_reached`` search the whole grid on quadrature, for a cell bisected
on quadrature alone; without a hint one evaluation of lhs(0.999) first
shows whether the lhs reaches the target on the grid.  The corollaries,
each the class equation on one family slice, and the threshold scans use
the same ``_bisect``, the one bisection loop; every result gets its
sharpness verdict and notes from ``_radius_result``.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from functools import cache, lru_cache
from itertools import accumulate, repeat
from typing import Callable, Mapping, NamedTuple, Sequence

from . import power_series as ps
from ._lazy import lazy_import
from ._record import Record, store
from .catalog import (
    FAMILIES,
    SPEC_CACHE_SIZE,
    PhiSpec,
    as_janowski,
    has_positive_coeffs,
    majorant_phi_evaluator,
    phi_evaluator,
    phi_series,
)
from .errors import InconsistencyError, NoRootError, ParameterError, as_real
from .extremal import build_extremal, growth_evaluator, h_evaluator, k_prime_evaluator
from .quadrature import DEFAULT_TOL, check_tol, integrate_1d, integrate_nested

np = lazy_import("numpy")

_SCAN_STEP = 1e-3
_SCAN_LIMIT = 0.999
_BISECT_WIDTH = 1e-11
_SERIES_EVAL_TAIL = 1e-11
#: how far the series curve may sit from the quadrature lhs, its truncation
#: tail aside: Horner's rounding of nonnegative terms (about 2 N eps times
#: the value) plus the quadrature's actual error, far inside its tolerance
_GUIDE_MARGIN = 1e-13
_ONE_THIRD = 1.0 / 3.0
_CLOSED_FORM_TOL = 1e-13  # quadrature tolerance of the corollaries that integrate
_WITNESS_STEP = 0.01  # how far past a sharp radius the witness checks the bound is exceeded

#: Smallest series order a radius solve accepts: below it a mixed-sign
#: spec's truncated kernel majorant can misplace the root while its tail
#: hint stays small (a nonnegative spec's series only steers the hint).
MIN_ORDER = 8


def _scan_grid() -> tuple[float, ...]:
    """0, 1e-3, 2e-3, ..., 0.999, accumulated step by step: bisection
    starts from one of these cells, so its floats fix the radius bits."""
    steps = repeat(_SCAN_STEP, round(_SCAN_LIMIT / _SCAN_STEP))
    return tuple(accumulate(steps, lambda g, step: min(g + step, _SCAN_LIMIT), initial=0.0))


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

    @property
    def nested(self) -> bool:
        """Whether the class transform T is the nested (1/s) integral (Cc, Cs)
        rather than one integration (Ks, Sc)."""
        return self in (ClassId.CC, ClassId.CS)

    def transform(self, c: np.ndarray) -> np.ndarray:
        """The class transform T applied termwise along the last axis of c:
        c_n lands on z^{n+1} divided by n + 1, and by n + 1 once more when
        T is nested, so the last axis grows by one."""
        weights = np.arange(1, c.shape[-1] + 1)
        out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,))
        out[..., 1:] = c / weights
        if self.nested:
            out[..., 1:] /= weights
        return out


def kernel_series(
    class_id: ClassId, spec: PhiSpec, order: int = ps.DEFAULT_ORDER
) -> ps.TruncatedSeries:
    """The class kernel K: 1/(1 - z^2) for Ks, the bundle's k' for Sc and
    Cc, and the bundle's K' for Cs."""
    order = ps.as_order(order)
    if class_id is ClassId.KS:
        out = np.zeros(order)
        out[0::2] = 1.0
        return ps.TruncatedSeries(out)
    es = build_extremal(spec, order)
    return es.K_prime if class_id is ClassId.CS else es.k_prime


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
    t = 0.  Built on each call, in microseconds: it binds the spec's
    evaluators, and a mixed-sign kernel series comes from the cached bundle.
    """
    order = ps.as_order(order)
    m_phi = majorant_phi_evaluator(spec)
    if class_id is ClassId.KS:
        return lambda t: m_phi(t) / (1.0 - t * t)
    if not has_positive_coeffs(spec):  # k' and K' mix signs only where phi does
        m = _majorant_evaluator(kernel_series(class_id, spec, order))
    elif class_id is ClassId.CS:  # M_{K'} = K' = exp(G(t^2) / 2), as the target reads it at -t^2
        growth = growth_evaluator(spec)
        m = lambda t: math.exp(0.5 * growth(t * t))
    else:
        m = k_prime_evaluator(spec)  # M_{k'} = k', which has a closed or tabulated form
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


def _integrate(class_id: ClassId, f: Callable[[float], float], r: float, tol: float) -> float:
    """The class transform T of the integrand f at r, by quadrature."""
    if class_id.nested:
        return integrate_nested(f, r, tol).value
    return integrate_1d(f, 0.0, r, tol).value


def _series_lhs_curve(class_id: ClassId, spec: PhiSpec, order: int) -> ps.TruncatedSeries:
    """T(M_K M_phi)."""
    m_kernel = ps.majorant(kernel_series(class_id, spec, order))
    product = ps.mul(m_kernel, ps.majorant(phi_series(spec, order)))
    return ps.TruncatedSeries(class_id.transform(product.coeffs))


def lhs_at(
    class_id: ClassId,
    spec: PhiSpec,
    r: float,
    method: str = "quadrature",
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> float:
    """The class lhs at radius r by either evaluation route; both take
    0 <= r < 1 and raise the same ParameterError for any other r."""
    what = f"lhs_at takes a real r with 0 <= r < 1, got {r!r}"
    r = as_real(r, what)
    if not 0.0 <= r < 1.0:
        raise ParameterError(what)
    if method == "series":
        return ps.evaluator(_series_lhs_curve(class_id, spec, order))(r)
    if method != "quadrature":
        raise ParameterError(f"unknown method {method!r}")
    return _integrate(class_id, lhs_integrand(class_id, spec, order), r, tol)


def distance_integral_at(
    class_id: ClassId, spec: PhiSpec, r: float, tol: float = DEFAULT_TOL
) -> float:
    """The distance-bound integral at radius r (Ks and Cs only), by quadrature."""
    r = as_real(r, f"distance_integral_at takes a finite real r, got {r!r}")
    return _integrate(class_id, distance_integrand(class_id, spec), r, tol)


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


class RadiusResult(Record):
    """Solved radius with the 1/3 cap and the sharpness verdict; a radius
    outside (0, 1) or a residual above 1e-8 is an InconsistencyError."""

    __slots__ = ("r_f", "capped", "sharp", "residual", "bracket", "notes")

    def __init__(
        self,
        r_f: float,
        capped: float,
        sharp: bool,
        residual: float,
        bracket: tuple[float, float],
        notes: str,
    ):
        if not (0.0 < r_f < 1.0):
            raise InconsistencyError(f"radius {r_f} outside (0, 1)")
        if residual > 1e-8:
            raise InconsistencyError(f"radius residual {residual:.3g} exceeds 1e-8")
        store(self, "r_f", r_f)
        store(self, "capped", capped)
        store(self, "sharp", sharp)
        store(self, "residual", residual)
        store(self, "bracket", bracket)
        store(self, "notes", notes)

    def to_dict(self) -> dict:
        return {**self._asdict(), "bracket": list(self.bracket)}


def _first_reached(f: Callable[[float], float], target: float) -> int:
    """The first scan-grid index i with f(g[i]) >= target for a nondecreasing
    f with f(0) < target, by bisection over the indices, or len(g) when f
    stays below the target on the whole grid."""
    return bisect_left(_SCAN_GRID, True, key=lambda r: f(r) >= target)


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


def _root_at_most_third(lhs: Callable[[float], float], rhs: float) -> bool:
    """Whether the first root of lhs = rhs, lhs nondecreasing, is at most 1/3."""
    return bool(lhs(_ONE_THIRD) >= rhs)


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
    nonnegative coefficient spec (so that M_h = h) and h(1/3) >= -h(-1),
    whichever route found r_f, where the extremal member attains the bound.
    Other results are lower bounds on the class Bohr radius.
    """
    r_f = 0.5 * (lo + hi)
    residual = abs(lhs(r_f) - target)
    proved = class_id is ClassId.SC and has_positive_coeffs(spec)
    within = _root_at_most_third(*_sc_growth_parts(spec)) if proved else r_f <= _ONE_THIRD
    sharp = proved and within
    if sharp:
        notes = "sharp: the extremal member attains the coefficient bound at r_f"
    elif class_id is ClassId.SC and not within:
        notes = (
            "root exceeds 1/3; the coefficient inequality holds for r <= 1/3 "
            "(capped radius governs)"
        )
    elif not within:
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
    order = ps.as_order(order, MIN_ORDER)
    return _solve_cached(class_id, spec, order, check_tol(tol))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _solve_cached(class_id: ClassId, spec: PhiSpec, order: int, tol: float) -> RadiusResult:
    target = target_constant(class_id, spec, order, tol)
    curve = _series_lhs_curve(class_id, spec, order)
    series = ps.evaluator(curve)
    last, n = abs(float(curve.coeffs[-1])), curve.order
    lhs = cache(lambda r: lhs_at(class_id, spec, r, "quadrature", order, tol))

    def guided(r: float) -> float:
        # quadrature and series differ by up to the margin plus the truncation tail
        s = series(r)
        return s if abs(s - target) > _GUIDE_MARGIN + ps._tail_hint(last, n, r) else lhs(r)

    # the curve's coefficients are nonnegative, so its Horner values rise
    # with r on the grid even in floating point and bisection finds the
    # first grid point where it reaches the target
    hint = _first_reached(series, target)
    if hint <= _LAST:
        # a certified bracket here is the one the quadrature-only path gives
        lo, hi = _bisect(lambda r: guided(r) >= target, _SCAN_GRID[hint - 1], _SCAN_GRID[hint])
        if lhs(lo) < target <= lhs(hi):
            return _radius_result(class_id, spec, lhs, target, lo, hi)
    # with no hint the lhs most likely stays below the target: one evaluation shows it
    i = _first_reached(lhs, target) if hint <= _LAST or lhs(_SCAN_LIMIT) >= target else hint
    if i > _LAST:
        raise NoRootError(
            f"{class_id.value} lhs for {spec.label()} stays below its target on "
            f"(0, {_SCAN_LIMIT}]: lhs({_SCAN_LIMIT}) = {lhs(_SCAN_LIMIT):.10g} < "
            f"target {target:.10g}, so any root lies beyond {_SCAN_LIMIT}"
        )
    lo, hi = _bisect(lambda r: lhs(r) >= target, _SCAN_GRID[i - 1], _SCAN_GRID[i])
    return _radius_result(class_id, spec, lhs, target, lo, hi)


# ---------------------------------------------------------------------------
# closed-form corollary equations
# ---------------------------------------------------------------------------


def _ks_sakaguchi_parts(spec: PhiSpec):
    # phi = janowski(A, -1) integrates in closed form on both sides of the Ks equation
    a, _ = as_janowski(spec)
    lhs = lambda r: (1.0 - a) / 4.0 * math.log((1.0 + r) / (1.0 - r)) + (1.0 + a) / 2.0 * r / (1.0 - r)
    return lhs, (1.0 + a) / 4.0 * math.log(2.0) + (1.0 - a) * math.pi / 8.0


def _ks_integral_parts(spec: PhiSpec):
    # the general Ks lhs and distance integral, at a tolerance below the bisection width
    lhs = lambda r: lhs_at(ClassId.KS, spec, r, tol=_CLOSED_FORM_TOL)
    return lhs, distance_integral_at(ClassId.KS, spec, 1.0, _CLOSED_FORM_TOL)


def _sc_growth_parts(spec: PhiSpec):
    # nonnegative coefficients make M_h = h, so the equation is h(r) = -h(-1)
    if not has_positive_coeffs(spec):  # its Sc lhs is M_h(r), not h(r)
        raise ParameterError(f"{spec.label()} has mixed-sign coefficients: use solve_radius")
    h = h_evaluator(spec)
    return h, -h(-1.0)


#: equation id -> (class, family, parts builder on the spec, fixed parameters)
CLOSED_FORM_EQUATIONS: Mapping[str, tuple] = {
    "ks-sakaguchi": (ClassId.KS, "sakaguchi", _ks_sakaguchi_parts, {}),
    "ks-wang": (ClassId.KS, "wang", _ks_integral_parts, {}),
    "sc-lemniscate": (ClassId.SC, "lemniscate", _sc_growth_parts, {}),
    "sc-sakaguchi": (ClassId.SC, "sakaguchi", _sc_growth_parts, {}),
    "sc-expblend": (ClassId.SC, "expblend", _sc_growth_parts, {}),
    "sc-janowski-b0": (ClassId.SC, "janowski", _sc_growth_parts, {"B": 0.0}),
    "sc-janowski": (ClassId.SC, "janowski", _sc_growth_parts, {}),
}


def _free_names(equation_id: str) -> tuple[str, ...]:
    """The family's parameter names that the equation does not fix."""
    _, family, _, fixed = CLOSED_FORM_EQUATIONS[equation_id]
    return tuple(n for n in FAMILIES[family].names if n not in fixed)


def _closed_form(equation_id: str, params: Mapping[str, float]):
    """(class, spec, lhs, rhs) of the equation, its free parameters read
    from params, which may hold no other key, and the rest fixed; the spec
    checks the ranges."""
    if equation_id not in CLOSED_FORM_EQUATIONS:
        raise ParameterError(
            f"unknown equation {equation_id!r}; expected one of {sorted(CLOSED_FORM_EQUATIONS)}"
        )
    class_id, family, parts_builder, fixed = CLOSED_FORM_EQUATIONS[equation_id]
    names = _free_names(equation_id)
    missing = [n for n in names if n not in params]
    if missing:
        raise ParameterError(f"{equation_id} needs parameters {names}, missing {missing}")
    extra = [n for n in params if n not in names]
    if extra:
        raise ParameterError(f"{equation_id} takes parameters {names}, not {extra}")
    spec = PhiSpec(family, tuple({**params, **fixed}[n] for n in FAMILIES[family].names))
    return (class_id, spec, *parts_builder(spec))


def solve_corollary_closed_form(equation_id: str, params: Mapping[str, float]) -> RadiusResult:
    """Solve a corollary: the class equation on the equation's family slice.

    ks-sakaguchi and the Sc rows are closed forms: the Ks integrals of
    janowski(A, -1), and h(r) = -h(-1) with h from ``extremal`` (the Sc rows
    admit only nonnegative coefficients, where M_h = h); ks-wang reads the
    general Ks pieces, ``lhs_at`` and ``distance_integral_at``, at tolerance
    1e-13.  Bisection of (0, 1) to width 1e-12 reads lhs at midpoints only,
    never at the pole some lhs have at 1, so ``NoRootError`` means no root
    up to 1 - 1e-12.  Each agrees with ``solve_radius`` on its spec to 1e-7.
    """
    return _solve_closed_form(equation_id, _closed_form(equation_id, params))


def _solve_closed_form(equation_id: str, equation: tuple) -> RadiusResult:
    """The result for the root of a ``_closed_form`` equation, bisected on (0, 1)."""
    class_id, spec, lhs, rhs = equation
    lo, hi = _bisect(lambda r: lhs(r) >= rhs, 0.0, 1.0, 1e-12)
    if hi == 1.0:  # lhs stayed below rhs at every midpoint
        raise NoRootError(f"{equation_id} equation shows no root in (0, 1 - 1e-12]")
    return _radius_result(class_id, spec, lhs, rhs, lo, hi)


# ---------------------------------------------------------------------------
# sharpness witness and threshold scans
# ---------------------------------------------------------------------------


class WitnessReport(NamedTuple):
    """Evidence that a sharp radius cannot be enlarged; ``_asdict`` gives
    the verification report's ``witness``."""

    radius: float
    value_at_radius: float
    bound: float
    delta: float
    value_beyond: float
    exceeds_beyond: bool

    @property
    def ok(self) -> bool:
        return abs(self.value_at_radius - self.bound) <= 1e-7 and self.exceeds_beyond


def sharpness_witness(class_id: ClassId, spec: PhiSpec, result: RadiusResult) -> WitnessReport:
    """Check that the extremal member attains the bound at r_f and
    strictly exceeds it at r_f + 0.01 (below 1, a sharp r_f being at most 1/3)."""
    if class_id is not ClassId.SC or not result.sharp:
        raise ParameterError("sharpness witness applies to sharp Sc results only")
    h, bound = _sc_growth_parts(spec)  # the Sc corollary h(r) = -h(-1)
    value = h(result.r_f)  # positive coefficients: M_h(r) == h(r)
    if abs(value - bound) > 1e-7:
        raise InconsistencyError(
            f"extremal value {value!r} misses the bound {bound!r} at r_f={result.r_f!r}; "
            "solver or extremal-function bug"
        )
    beyond = h(result.r_f + _WITNESS_STEP)
    return WitnessReport(result.r_f, value, bound, _WITNESS_STEP, beyond, bool(beyond > bound))


class ThresholdRow(NamedTuple):
    """One scan point: its radius and whether it lies in (0, 1/3]."""

    param: float
    r_f: float
    in_sharp_window: bool


class ThresholdScan(NamedTuple):
    """A scan's rows and the 1/3 crossing it brackets, if any."""

    equation_id: str
    rows: tuple[ThresholdRow, ...]
    bracket: tuple[float, float] | None  # grid pair where the 1/3 crossing sits
    threshold: float | None  # refined crossing parameter


#: the closed-form equations with one parameter, the ones a scan can sweep
SCAN_EQUATIONS = tuple(sorted(e for e in CLOSED_FORM_EQUATIONS if len(_free_names(e)) == 1))


def threshold_scan(equation_id: str, params: Sequence[float]) -> ThresholdScan:
    """Sweep a monotone parameter grid, reporting the radius and whether it
    falls in the sharp window (0, 1/3], then bracket and refine the parameter
    where it crosses 1/3, all three by the sharp verdict's test lhs(1/3) >= rhs."""
    if equation_id not in SCAN_EQUATIONS:
        raise ParameterError(
            f"scan needs a one-parameter equation, got {equation_id!r}; expected one of "
            f"{list(SCAN_EQUATIONS)}"
        )
    (name,) = _free_names(equation_id)
    grid = [as_real(p, f"scan parameters must be finite reals, got {p!r}") for p in params]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("parameter grid must be increasing with at least two points")

    def within(p: float) -> bool:
        return _root_at_most_third(*_closed_form(equation_id, {name: p})[2:])

    def row(p: float) -> ThresholdRow:  # its radius and its flag from one equation
        eq = _closed_form(equation_id, {name: p})
        return ThresholdRow(p, _solve_closed_form(equation_id, eq).r_f, _root_at_most_third(*eq[2:]))

    rows = tuple(row(p) for p in grid)
    bracket = threshold = None
    for a, b in zip(rows, rows[1:]):
        if a.in_sharp_window != b.in_sharp_window:
            bracket = (a.param, b.param)
            lo, hi = _bisect(lambda p: within(p) != a.in_sharp_window, *bracket, 1e-9)
            threshold = 0.5 * (lo + hi)
            break
    return ThresholdScan(equation_id, rows, bracket, threshold)
