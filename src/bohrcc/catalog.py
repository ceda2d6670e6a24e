"""Catalog of shape functions phi driving the function classes.

Every class studied here is defined by subordination to a fixed analytic
function phi with ``phi(0) = 1`` and ``phi'(0) > 0`` whose image is
starlike about 1 and symmetric about the real axis.  The catalog covers
six parameterized families:

``janowski(A, B)``      (1 + A z) / (1 + B z),      -1 <= B < A <= 1
``sakaguchi(gamma)``    (1 + (1-2g) z) / (1 - z),    0 <= g < 1
``lemniscate(s)``       (1 + s z)**2,                0 < s <= 1/sqrt(2)
``expblend(alpha)``     a + (1-a) e**z,              0 <= a < 1
``strongly(alpha)``     ((1+z)/(1-z))**a,            0 < a <= 1
``wang(alpha, beta)``   (1 + b z) / (1 - a b z),     0 <= a <= 1, 0 < b <= 1

``FAMILIES`` maps each name to its :class:`Family` record, the one place
that knows the family: parameter names, box, and the formulas for the
series, real and complex values, majorant, growth exponent (or, where it
is integrated, phi near its pole at 1), h and k.
``sakaguchi(g)`` is ``janowski(1-2g, -1)`` and ``wang(a, b)`` is
``janowski(b, -a*b)``, so their records hold only that map and borrow the
Janowski formulas through :func:`formulas_of`.  Out-of-range parameters
are rejected at construction, never clamped.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from . import power_series as ps
from ._lazy import lazy_import
from .errors import DomainError, ParameterError, as_real

np = lazy_import("numpy")

#: Entries kept by each spec-keyed cache; a scan or fuzz run over many
#: specs evicts the least recently used instead of growing without limit.
SPEC_CACHE_SIZE = 256

SQRT_HALF = math.sqrt(0.5)  # correctly-rounded 1/sqrt(2); the admissible lemniscate endpoint

#: Below this |B| the Janowski growth takes log1p, as rounding 1 + Bx costs it about
#: 1e-16/|B|; above it the plain form, whose bits the tests pin, loses at most 2e-13
_SMALL_B = 1e-3


@dataclass(frozen=True)
class Family:
    """One catalog family.  The formulas take the parameters last; ``real``,
    ``majorant``, ``growth``, ``from_one``, ``h`` and ``k`` return the
    unchecked function of a float that a domain-checking caller wraps;
    ``real`` takes the spec for its pole text.  A family without ``growth``
    gives ``from_one``, phi(1 - u) as a function of u, which keeps its
    digits where a pole at 1 makes phi(t) lose them to the rounding of t."""

    names: tuple[str, ...]
    box: str  # as the ParameterError states it, one {} per parameter value
    admits: Callable[..., bool]
    janowski: Callable[..., tuple[float, float]] | None = None  # the (A, B) of the same phi
    series: Callable[..., ps.TruncatedSeries] | None = None  # (order, *params)
    real: Callable[..., Callable[[float], float]] | None = None  # (spec, *params)
    complex: Callable[..., complex] | None = None  # (z, *params)
    majorant: Callable[..., Callable[[float], float]] | None = None  # None: phi itself
    growth: Callable[..., Callable[[float], float]] | None = None  # None: by quadrature
    from_one: Callable[..., Callable[[float], float]] | None = None  # phi(1 - u) of u
    h: Callable[..., Callable[[float], float]] | None = None  # None: x k'(x)
    k: Callable[..., Callable[[float], float]] | None = None  # None: the quadrature of k'


def _janowski_series(order: int, a: float, b: float) -> ps.TruncatedSeries:
    out = np.empty(max(order, 2))
    out[:2] = 1.0, a - b
    for n in range(2, order):
        out[n] = -b * out[n - 1]
    return ps.TruncatedSeries(out[:order])


def _janowski_real(spec: PhiSpec, a: float, b: float) -> Callable[[float], float]:
    def formula(x: float) -> float:
        denom = 1.0 + b * x
        if denom <= 0.0:
            raise DomainError(f"pole of {spec.label()} at x={x}")
        return (1.0 + a * x) / denom

    return formula


def _janowski_majorant(a: float, b: float) -> Callable[[float], float]:
    rise, ratio = a - b, abs(b)
    return lambda t: 1.0 + rise * t / (1.0 - ratio * t)


def _janowski_growth(a: float, b: float) -> Callable[[float], float]:
    if abs(b) < _SMALL_B:  # (A - B) log1p(Bx)/B, which is (A - B) x where Bx is subnormal or 0
        return lambda x: (a - b) * (math.log1p(b * x) / b if abs(b * x) >= sys.float_info.min else x)
    power = (a - b) / b
    return lambda x: power * math.log(1.0 + b * x)


def _janowski_h(a: float, b: float) -> Callable[[float], float]:
    if abs(b) < _SMALL_B:  # h = x e^{G(x)}, x e^{Ax} at B = 0
        growth = _janowski_growth(a, b)
        return lambda x: x * math.exp(growth(x))
    return lambda x: x * (1.0 + b * x) ** ((a - b) / b)  # admissible B: 1 + Bx > 0 on [-1, 1)


def _janowski_k(a: float, b: float) -> Callable[[float], float]:
    # k = ((1+bx)^{a/b} - 1)/a = (e^{ay} - 1)/a, y = log(1+bx)/b: log1p and expm1 keep
    # the digits of a small a or b; y = x where bx is subnormal, and k = y where ay is
    def k(x: float) -> float:
        y = math.log1p(b * x) / b if abs(b * x) >= sys.float_info.min else x
        return math.expm1(a * y) / a if abs(a * y) >= sys.float_info.min else y

    return k


def _lemniscate_series(order: int, s: float) -> ps.TruncatedSeries:
    out = np.zeros(max(order, 3))
    out[:3] = 1.0, 2.0 * s, s * s
    return ps.TruncatedSeries(out[:order])


def _expblend_series(order: int, a: float) -> ps.TruncatedSeries:
    out = np.empty(order)
    out[0] = 1.0
    fact = 1.0
    for n in range(1, order):
        fact *= n
        out[n] = (1.0 - a) / fact
    return ps.TruncatedSeries(out)


def _expblend_growth(alpha: float) -> Callable[[float], float]:
    def formula(x: float) -> float:
        total, term = 0.0, 1.0
        for n in range(1, 60):
            term *= x / n
            total += term / n
            if abs(term) < 1e-18:
                break
        return (1.0 - alpha) * total

    return formula


def _strongly_series(order: int, a: float) -> ps.TruncatedSeries:
    # exp(alpha * log((1+z)/(1-z))), log series 2 * sum z^odd / odd
    log_part = np.zeros(order)
    for n in range(1, order, 2):
        log_part[n] = 2.0 * a / n
    return ps.exp_series(ps.TruncatedSeries(log_part))


def _strongly_real(spec: PhiSpec, a: float) -> Callable[[float], float]:
    def formula(x: float) -> float:
        if x == 1.0:
            raise DomainError(f"pole of {spec.label()} at x=1")
        return ((1.0 + x) / (1.0 - x)) ** a

    return formula


FAMILIES: Mapping[str, Family] = {
    "janowski": Family(
        ("A", "B"), "-1 <= B < A <= 1, got A={}, B={}", lambda a, b: -1.0 <= b < a <= 1.0,
        janowski=lambda a, b: (a, b), series=_janowski_series, real=_janowski_real,
        complex=lambda z, a, b: (1.0 + a * z) / (1.0 + b * z), majorant=_janowski_majorant,
        growth=_janowski_growth, h=_janowski_h, k=_janowski_k,
    ),
    "sakaguchi": Family(
        ("gamma",), "0 <= gamma < 1, got {}", lambda g: 0.0 <= g < 1.0,
        janowski=lambda g: (1.0 - 2.0 * g, -1.0),
    ),
    "lemniscate": Family(
        ("s",), "0 < s <= 1/sqrt(2), got {}", lambda s: 0.0 < s <= SQRT_HALF,
        series=_lemniscate_series, real=lambda spec, s: lambda x: (1.0 + s * x) ** 2,
        complex=lambda z, s: (1.0 + s * z) ** 2,
        growth=lambda s: lambda x: s * (2.0 * x + s * x * x / 2.0),
    ),
    "expblend": Family(
        ("alpha",), "0 <= alpha < 1, got {}", lambda a: 0.0 <= a < 1.0,
        series=_expblend_series, real=lambda spec, a: lambda x: a + (1.0 - a) * math.exp(x),
        complex=lambda z, a: a + (1.0 - a) * cmath.exp(z),
        growth=_expblend_growth,
    ),
    "strongly": Family(
        ("alpha",), "0 < alpha <= 1, got {}", lambda a: 0.0 < a <= 1.0,
        series=_strongly_series, real=_strongly_real,
        complex=lambda z, a: ((1.0 + z) / (1.0 - z)) ** a,  # right half plane, principal power is safe
        from_one=lambda a: lambda u: ((2.0 - u) / u) ** a,
    ),
    "wang": Family(
        ("alpha", "beta"), "0 <= alpha <= 1 and 0 < beta <= 1, got {}, {}",
        lambda a, b: 0.0 <= a <= 1.0 and 0.0 < b <= 1.0,
        janowski=lambda a, b: (b, -a * b),
    ),
}


@dataclass(frozen=True)
class PhiSpec:
    """One catalog family plus its numeric parameters, checked against the
    family's box when made; every quantity of phi is derived from it."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise ParameterError(f"unknown family {self.family!r}")
        if len(self.params) != len(fam.names):
            raise ParameterError(
                f"{self.family} takes parameters {fam.names}, got {len(self.params)} values"
            )
        try:
            params = tuple(as_real(p, "") for p in self.params)
        except ParameterError:  # the message shows every value as given
            raise ParameterError(
                f"{self.family} requires " + fam.box.format(*map(repr, self.params))
            ) from None
        object.__setattr__(self, "params", params)
        if not fam.admits(*self.params):
            raise ParameterError(f"{self.family} requires " + fam.box.format(*self.params))

    def param_dict(self) -> dict[str, float]:
        return dict(zip(FAMILIES[self.family].names, self.params))

    def label(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.param_dict().items())
        return f"{self.family}({inner})"


def janowski(a: float, b: float) -> PhiSpec:
    return PhiSpec("janowski", (a, b))


def sakaguchi(gamma: float) -> PhiSpec:
    return PhiSpec("sakaguchi", (gamma,))


def lemniscate(s: float) -> PhiSpec:
    return PhiSpec("lemniscate", (s,))


def expblend(alpha: float) -> PhiSpec:
    return PhiSpec("expblend", (alpha,))


def strongly(alpha: float) -> PhiSpec:
    return PhiSpec("strongly", (alpha,))


def wang(alpha: float, beta: float) -> PhiSpec:
    return PhiSpec("wang", (alpha, beta))


def as_janowski(spec: PhiSpec) -> tuple[float, float] | None:
    """(A, B) parameters when the family is a Janowski re-parameterization."""
    to_ab = FAMILIES[spec.family].janowski
    return None if to_ab is None else to_ab(*spec.params)


def formulas_of(spec: PhiSpec) -> tuple[Family, tuple[float, ...]]:
    """The record whose formulas serve the spec, and the parameters they
    take: the Janowski record and (A, B) for a Janowski-style spec."""
    ab = as_janowski(spec)
    return (FAMILIES[spec.family], spec.params) if ab is None else (FAMILIES["janowski"], ab)


def phi_series(spec: PhiSpec, order: int = ps.DEFAULT_ORDER) -> ps.TruncatedSeries:
    """Taylor coefficients of phi about 0 to the requested order.
    Memoized by value, however the order is spelled."""
    return _phi_series(spec, ps.as_order(order))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _phi_series(spec: PhiSpec, order: int) -> ps.TruncatedSeries:
    fam, p = formulas_of(spec)
    return fam.series(order, *p)


def phi_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """Closed-form phi on [-1, 1] for one spec as a function of a float,
    its family looked up and its parameters unpacked once; the only rejected
    points are actual poles.  Integrands call this."""
    fam, p = formulas_of(spec)
    formula = fam.real(spec, *p)

    def phi(x: float) -> float:
        if not (-1.0 <= x <= 1.0):
            raise DomainError(f"phi is evaluated on [-1, 1], got {x}")
        return formula(x)

    return phi


def phi_complex(spec: PhiSpec, z: complex) -> complex:
    """phi at a complex point of the open disk (principal branches)."""
    if abs(z) >= 1.0:
        raise DomainError("phi_complex requires |z| < 1")
    fam, p = formulas_of(spec)
    return fam.complex(z, *p)


def majorant_phi_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """The coefficient-modulus series of phi on [0, 1) for one spec:
    ``1 + (A-B) t / (1 - |B| t)`` for Janowski-style families, phi itself
    for the others, whose coefficients are nonnegative."""
    fam, p = formulas_of(spec)
    formula = fam.real(spec, *p) if fam.majorant is None else fam.majorant(*p)

    def majorant(t: float) -> float:
        if not (0.0 <= t < 1.0):
            raise DomainError("majorant evaluated for 0 <= t < 1")
        return formula(t)

    return majorant


def has_positive_coeffs(spec: PhiSpec) -> bool:
    """True when every series coefficient past the constant is nonnegative
    with a strictly positive leading one, read off the family record.

    Past the constant, Janowski's coefficients are (A-B)(-B)^(n-1) with
    A > B, so a Janowski-style spec (sakaguchi and wang included) has them
    exactly when B <= 0; the other families' are nonnegative.  Zeros are
    allowed: families with finitely many terms (lemniscate) still satisfy
    the identity ``majorant(phi)(r) == phi(r)`` that this predicate exists
    to certify.  No series is built, so a B > 0 small enough for the
    computed coefficients to underflow to zero still reads as mixed signs.
    """
    ab = as_janowski(spec)
    return ab is None or ab[1] <= 0.0


def check_min_max_hypothesis(spec: PhiSpec, r: float, samples: int = 181) -> bool:
    """Numerically verify that |phi| on the circle |z| = r is extremized on
    the real axis: phi(-r) <= |phi(r e^{i theta})| <= phi(r).

    Advisory only; the radius computations assume this standing hypothesis
    and the test suite plus the CLI surface violations.
    """
    if not (0.0 < r < 1.0):
        raise ParameterError("check_min_max_hypothesis needs 0 < r < 1")
    if samples < 2:
        raise ParameterError("need at least two circle samples")
    phi = phi_evaluator(spec)
    lo, hi = phi(-r), phi(r)
    slack = 1e-10
    for theta in np.linspace(0.0, math.pi, samples):
        mod = abs(phi_complex(spec, r * complex(math.cos(theta), math.sin(theta))))
        if mod < lo - slack or mod > hi + slack:
            return False
    return True
