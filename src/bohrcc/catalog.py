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

``sakaguchi(g)`` coincides with ``janowski(1-2g, -1)`` and
``wang(a, b)`` with ``janowski(b, -a*b)``; the shared closed forms are
routed through that equivalence.  Out-of-range parameters are rejected at
construction, never clamped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import power_series as ps
from .errors import DomainError, ParameterError

#: Entries kept by each spec-keyed cache; a scan or fuzz run over many
#: specs evicts the least recently used instead of growing without limit.
SPEC_CACHE_SIZE = 256

_SQRT_HALF = math.sqrt(0.5)  # correctly-rounded 1/sqrt(2); the admissible endpoint

#: family name -> ordered parameter names
FAMILIES = {
    "janowski": ("A", "B"),
    "sakaguchi": ("gamma",),
    "lemniscate": ("s",),
    "expblend": ("alpha",),
    "strongly": ("alpha",),
    "wang": ("alpha", "beta"),
}


@dataclass(frozen=True)
class PhiSpec:
    """One catalog family plus its numeric parameters.

    The single source of truth for phi: series coefficients, pointwise
    values, and majorant data are all derived from this record.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        names = FAMILIES[self.family]
        if len(self.params) != len(names):
            raise ParameterError(
                f"{self.family} takes parameters {names}, got {len(self.params)} values"
            )
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        _validate(self.family, self.params)

    def param_dict(self) -> dict[str, float]:
        return dict(zip(FAMILIES[self.family], self.params))

    def label(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.param_dict().items())
        return f"{self.family}({inner})"


def _validate(family: str, p: tuple[float, ...]) -> None:
    if family == "janowski":
        a, b = p
        if not (-1.0 <= b < a <= 1.0):
            raise ParameterError(f"janowski requires -1 <= B < A <= 1, got A={a}, B={b}")
    elif family == "sakaguchi":
        (g,) = p
        if not (0.0 <= g < 1.0):
            raise ParameterError(f"sakaguchi requires 0 <= gamma < 1, got {g}")
    elif family == "lemniscate":
        (s,) = p
        if not (0.0 < s <= _SQRT_HALF):
            raise ParameterError(f"lemniscate requires 0 < s <= 1/sqrt(2), got {s}")
    elif family == "expblend":
        (a,) = p
        if not (0.0 <= a < 1.0):
            raise ParameterError(f"expblend requires 0 <= alpha < 1, got {a}")
    elif family == "strongly":
        (a,) = p
        if not (0.0 < a <= 1.0):
            raise ParameterError(f"strongly requires 0 < alpha <= 1, got {a}")
    elif family == "wang":
        a, b = p
        if not (0.0 <= a <= 1.0 and 0.0 < b <= 1.0):
            raise ParameterError(f"wang requires 0 <= alpha <= 1 and 0 < beta <= 1, got {a}, {b}")


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
    if spec.family == "janowski":
        return spec.params
    if spec.family == "sakaguchi":
        (g,) = spec.params
        return (1.0 - 2.0 * g, -1.0)
    if spec.family == "wang":
        a, b = spec.params
        return (b, -a * b)
    return None


def phi_series(spec: PhiSpec, order: int = ps.DEFAULT_ORDER) -> ps.TruncatedSeries:
    """Taylor coefficients of phi about 0 to the requested order."""
    if order <= 0:
        raise ParameterError("order must be positive")
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        out = np.empty(order)
        out[0] = 1.0
        if order > 1:
            out[1] = a - b
            for n in range(2, order):
                out[n] = -b * out[n - 1]
        return ps.TruncatedSeries(out)
    if spec.family == "lemniscate":
        (s,) = spec.params
        out = np.zeros(order)
        out[0] = 1.0
        if order > 1:
            out[1] = 2.0 * s
        if order > 2:
            out[2] = s * s
        return ps.TruncatedSeries(out)
    if spec.family == "expblend":
        (a,) = spec.params
        out = np.empty(order)
        out[0] = 1.0
        fact = 1.0
        for n in range(1, order):
            fact *= n
            out[n] = (1.0 - a) / fact
        return ps.TruncatedSeries(out)
    # strongly: exp(alpha * log((1+z)/(1-z))), log series 2 * sum z^odd / odd
    (a,) = spec.params
    log_part = np.zeros(order)
    for n in range(1, order, 2):
        log_part[n] = 2.0 * a / n
    return ps.exp_series(ps.TruncatedSeries(log_part))


def phi_at(spec: PhiSpec, x: float) -> float:
    """Closed-form value of phi on the real diameter (-1, 1).

    The extremal-growth integrals also need the endpoint values, so the
    closed interval [-1, 1] is accepted whenever the formula stays finite
    there; the only rejected points are actual poles.
    """
    return phi_evaluator(spec)(float(x))


def phi_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """:func:`phi_at` for one spec as a function of a float, its family
    dispatched and its parameters unpacked once.  Integrands call this."""
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab

        def formula(x: float) -> float:
            denom = 1.0 + b * x
            if denom <= 0.0:
                raise DomainError(f"pole of {spec.label()} at x={x}")
            return (1.0 + a * x) / denom

    elif spec.family == "lemniscate":
        (s,) = spec.params
        formula = lambda x: (1.0 + s * x) ** 2
    elif spec.family == "expblend":
        (a,) = spec.params
        formula = lambda x: a + (1.0 - a) * math.exp(x)
    else:
        (a,) = spec.params

        def formula(x: float) -> float:
            if x == 1.0:
                raise DomainError(f"pole of {spec.label()} at x=1")
            return ((1.0 + x) / (1.0 - x)) ** a

    def phi(x: float) -> float:
        if not (-1.0 <= x <= 1.0):
            raise DomainError(f"phi is evaluated on [-1, 1], got {x}")
        return formula(x)

    phi.formula = formula  # unchecked, for evaluators that check their own domain
    return phi


def phi_complex(spec: PhiSpec, z: complex) -> complex:
    """phi at a complex point of the open disk (principal branches)."""
    if abs(z) >= 1.0:
        raise DomainError("phi_complex requires |z| < 1")
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        return (1.0 + a * z) / (1.0 + b * z)
    if spec.family == "lemniscate":
        (s,) = spec.params
        return (1.0 + s * z) ** 2
    if spec.family == "expblend":
        (a,) = spec.params
        return a + (1.0 - a) * cmath.exp(z)
    (a,) = spec.params
    w = (1.0 + z) / (1.0 - z)  # right half plane, principal power is safe
    return w**a


def majorant_phi_at(spec: PhiSpec, t: float) -> float:
    """Pointwise value of the coefficient-modulus series of phi.

    Closed forms for every family: Janowski-style families sum to
    ``1 + (A-B) t / (1 - |B| t)``, all other catalog families have
    nonnegative coefficients so the majorant equals phi itself.
    """
    return majorant_phi_evaluator(spec)(float(t))


def majorant_phi_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """:func:`majorant_phi_at` for one spec as a function of a float."""
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        rise, ratio = a - b, abs(b)
        formula = lambda t: 1.0 + rise * t / (1.0 - ratio * t)
    else:
        formula = phi_evaluator(spec).formula

    def majorant(t: float) -> float:
        if not (0.0 <= t < 1.0):
            raise DomainError("majorant evaluated for 0 <= t < 1")
        return formula(t)

    return majorant


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def has_positive_coeffs(spec: PhiSpec) -> bool:
    """True when every series coefficient past the constant is nonnegative
    with a strictly positive leading one.

    Zeros are allowed: families with finitely many terms (lemniscate)
    still satisfy the identity ``majorant(phi)(r) == phi(r)`` that this
    predicate exists to certify.
    """
    c = phi_series(spec, ps.DEFAULT_ORDER).coeffs
    return bool(c[1] > 0.0 and np.all(c[1:] >= 0.0))


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
    lo, hi = phi_at(spec, -r), phi_at(spec, r)
    slack = 1e-10
    for theta in np.linspace(0.0, math.pi, samples):
        mod = abs(phi_complex(spec, r * complex(math.cos(theta), math.sin(theta))))
        if mod < lo - slack or mod > hi + slack:
            return False
    return True
