"""Extremal function bundle for a given shape function phi.

For each catalog spec this builds, as truncated series and as pointwise
evaluators on [-1, 1):

* ``h``   -- the starlike extremal, z h'(z)/h(z) = phi(z),
             h(z) = z exp(integral_0^z (phi(t)-1)/t dt)
* ``k``   -- the convex extremal, 1 + z k''(z)/k'(z) = phi(z)
* ``k'``  -- which coincides with h(z)/z (both equal the same exponential)
* ``K'``  -- (k'(t^2))^{1/2}, the derivative of the odd convex extremal
* ``H``   -- (h(z^2))^{1/2} = z K'(z), the odd starlike extremal

plus the boundary values h(-1) and k(-1) that serve as distance targets.
Closed forms are used where a family admits them; otherwise the growth
exponent integral_0^x (phi(t)-1)/t dt is computed by adaptive quadrature
with the removable point at 0 handled through the series of the integrand
(its value there is the leading phi coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import power_series as ps
from .catalog import PhiSpec, as_janowski, phi_at, phi_series
from .errors import DomainError, InconsistencyError
from .quadrature import AntiderivativeTable, Integrand1D, integrate_1d

_SERIES_SWITCH = 0.1  # below this |t|, (phi(t)-1)/t is evaluated from its series
_BOUNDARY_TOL = 1e-11
_TABLE_HI = 0.9995  # cached growth-exponent table covers [-1, _TABLE_HI]


@dataclass(frozen=True)
class ExtremalSet:
    """Immutable bundle of extremal data derived from one spec."""

    spec: PhiSpec
    h: ps.TruncatedSeries
    k: ps.TruncatedSeries
    k_prime: ps.TruncatedSeries
    K_prime: ps.TruncatedSeries  # series in t of (k'(t^2))^{1/2}
    h_at_minus_one: float
    k_at_minus_one: float


def build_extremal(spec: PhiSpec, order: int = ps.DEFAULT_ORDER) -> ExtremalSet:
    """Construct the extremal bundle for a spec.

    Series route: h/z = exp(sum B_n z^n / n) which is also k'; k follows
    by termwise integration and K' by composing k' with z^2 and taking the
    series square root.  Deterministic, so results are memoized.
    """
    return _build_extremal(spec, int(order))


def k_prime_series(phi: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """k' = h/z = exp(sum_n phi_n z^n / n), to the order of phi."""
    log_h = np.zeros(phi.order)
    log_h[1:] = phi.coeffs[1:] / np.arange(1, phi.order)
    return ps.exp_series(ps.TruncatedSeries(log_h))


@lru_cache(maxsize=None)
def _build_extremal(spec: PhiSpec, order: int) -> ExtremalSet:
    k_prime = k_prime_series(phi_series(spec, order))
    h = ps.shift_up(k_prime)
    k = ps.integrate_from_zero(k_prime)
    K_prime = ps.sqrt_series(ps.compose_with_selfmap(k_prime, ps.monomial(1.0, 2, order)))

    h_m1 = _h_closed(spec, -1.0)
    if h_m1 is None:
        h_m1 = -math.exp(growth_exponent(spec, -1.0))
    k_m1 = _k_closed(spec, -1.0)
    if k_m1 is None:
        g = Integrand1D(lambda t: k_prime_at(spec, t), 1.0, (-1.0, 1.0))
        k_m1 = integrate_1d(g, -1.0, 0.0, _BOUNDARY_TOL).value * -1.0
    if not (h_m1 < 0.0 < -h_m1):
        raise InconsistencyError(f"h(-1) = {h_m1} has the wrong sign for {spec.label()}")
    return ExtremalSet(spec, h, k, k_prime, K_prime, float(h_m1), float(k_m1))


def growth_exponent(spec: PhiSpec, x: float) -> float:
    """integral_0^x (phi(t) - 1)/t dt, the log of h(x)/x.

    Janowski-style and lemniscate families have elementary forms; the
    expblend integral is summed from its (entire) series; strongly falls
    back to adaptive quadrature.
    """
    x = float(x)
    if not (-1.0 <= x < 1.0):
        raise DomainError(f"growth exponent defined on [-1, 1), got {x}")
    if x == 0.0:
        return 0.0
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        if b == 0.0:
            return a * x
        return (a - b) / b * math.log(1.0 + b * x)
    if spec.family == "lemniscate":
        (s,) = spec.params
        return s * (2.0 * x + s * x * x / 2.0)
    if spec.family == "expblend":
        (alpha,) = spec.params
        total, term = 0.0, 1.0
        for n in range(1, 60):
            term *= x / n
            total += term / n
            if abs(term) < 1e-18:
                break
        return (1.0 - alpha) * total
    if x <= _TABLE_HI:
        table = _growth_table(spec)
        return table(x) - table(0.0)
    f = _growth_integrand(spec)
    return integrate_1d(f, 0.0, x, _BOUNDARY_TOL).value


def _growth_integrand(spec: PhiSpec) -> Integrand1D:
    series_head = phi_series(spec, 32)

    def integrand(t: float) -> float:
        if abs(t) < _SERIES_SWITCH:
            # (phi(t)-1)/t from the coefficient vector, exact at t = 0
            return float(np.polynomial.polynomial.polyval(t, series_head.coeffs[1:]))
        return (phi_at(spec, t) - 1.0) / t

    return Integrand1D(integrand, float(series_head.coeffs[1]), (-1.0, 1.0))


@lru_cache(maxsize=None)
def _growth_table(spec: PhiSpec) -> AntiderivativeTable:
    """Piecewise-Chebyshev antiderivative of (phi(t)-1)/t on [-1, 0.9995],
    so pointwise k' evaluations stay cheap inside adaptive quadrature."""
    return AntiderivativeTable(_growth_integrand(spec).evaluator, -1.0, _TABLE_HI, 1e-12)


def _h_closed(spec: PhiSpec, x: float) -> float | None:
    """Elementary closed form of h(x) where the family admits one."""
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        if b == 0.0:
            return x * math.exp(a * x)
        base = 1.0 + b * x
        if base <= 0.0:
            raise DomainError(f"h of {spec.label()} is singular at x={x}")
        return x * base ** ((a - b) / b)
    if spec.family == "lemniscate":
        (s,) = spec.params
        return x * math.exp(s * (2.0 * x + s * x * x / 2.0))
    return None


def _k_closed(spec: PhiSpec, x: float) -> float | None:
    """Closed form of k(x) = integral_0^x k'(t) dt for Janowski-style specs."""
    ab = as_janowski(spec)
    if ab is None:
        return None
    a, b = ab
    if b == 0.0:  # k' = e^{at}
        return (math.exp(a * x) - 1.0) / a  # a > b = 0 so a != 0
    if a == 0.0:  # k' = (1+bt)^{-1}
        return math.log(1.0 + b * x) / b
    return ((1.0 + b * x) ** (a / b) - 1.0) / a


def k_prime_at(spec: PhiSpec, x: float) -> float:
    """Pointwise k'(x) = exp(growth exponent); strictly positive."""
    return math.exp(growth_exponent(spec, x))


def h_at(es: ExtremalSet, x: float) -> float:
    """Pointwise h(x) on [-1, 1), preferring the closed form."""
    x = float(x)
    if not (-1.0 <= x < 1.0):
        raise DomainError(f"h is evaluated on [-1, 1), got {x}")
    closed = _h_closed(es.spec, x)
    if closed is not None:
        return closed
    return x * k_prime_at(es.spec, x)


def k_at(es: ExtremalSet, x: float) -> float:
    """Pointwise k(x) on [-1, 1): closed form when available, else
    quadrature of the k' evaluator."""
    x = float(x)
    if not (-1.0 <= x < 1.0):
        raise DomainError(f"k is evaluated on [-1, 1), got {x}")
    closed = _k_closed(es.spec, x)
    if closed is not None:
        return closed
    if x == 0.0:
        return 0.0
    g = Integrand1D(lambda t: k_prime_at(es.spec, t), 1.0, (-1.0, 1.0))
    if x > 0:
        return integrate_1d(g, 0.0, x, _BOUNDARY_TOL).value
    return -integrate_1d(g, x, 0.0, _BOUNDARY_TOL).value


def K_prime_at(es: ExtremalSet, t: float) -> float:
    """Pointwise (k'(t^2))^{1/2} via the growth exponent (no series)."""
    return math.exp(0.5 * growth_exponent(es.spec, t * t))


def odd_starlike_at(es: ExtremalSet, t: float) -> float:
    """Pointwise (h(t^2))^{1/2} = t * K'(t) for t in [0, 1)."""
    if not (0.0 <= t < 1.0):
        raise DomainError("odd extremal evaluated on [0, 1)")
    return t * K_prime_at(es, t)
