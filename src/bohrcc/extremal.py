"""Extremal functions for a given shape function phi.

The radius equations read four quantities per catalog spec, which
:func:`build_extremal` bundles as an :class:`ExtremalSet`:

* ``k'``  -- the convex extremal's derivative, 1 + z k''(z)/k'(z) = phi(z);
             it equals h(z)/z for the starlike extremal h, z h'(z)/h(z) =
             phi(z), so the series of h and k are ``shift_up`` and
             ``integrate_from_zero`` of its series
* ``K'``  -- (k'(t^2))^{1/2}, the derivative of the odd convex extremal
* h(-1) and k(-1), the boundary values that serve as distance targets.

Pointwise values on [-1, 1) (``h_at``, ``k_at``, ``k_prime_at``,
``K_prime_at``) take the spec and need no series; the ``*_evaluator``
closures bind one spec for probes and integrands, uncached: a cache here
holds work (the bundle, the growth table), never a closure.  Closed forms
are used where a family admits them; otherwise the growth exponent
integral_0^x (phi(t)-1)/t dt is computed by adaptive quadrature with the
removable point at 0 handled through the series of the integrand (its
value there is the leading phi coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import power_series as ps
from .catalog import SPEC_CACHE_SIZE, PhiSpec, as_janowski, phi_evaluator, phi_series
from .errors import BudgetError, DomainError, InconsistencyError
from .quadrature import AntiderivativeTable, integrate_1d

_SERIES_SWITCH = 0.1  # below this |t|, (phi(t)-1)/t is evaluated from its series
_BOUNDARY_TOL = 1e-11
_TABLE_HI = 0.9995  # cached growth-exponent table covers [-1, _TABLE_HI]


@dataclass(frozen=True)
class ExtremalSet:
    """Immutable bundle of the extremal data the radius equations read."""

    k_prime: ps.TruncatedSeries
    K_prime: ps.TruncatedSeries  # series in t of (k'(t^2))^{1/2}
    h_at_minus_one: float
    k_at_minus_one: float


def k_prime_series(phi: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """k' = h/z = exp(sum_n phi_n z^n / n), to the order of phi."""
    log_h = np.zeros(phi.order)
    log_h[1:] = phi.coeffs[1:] / np.arange(1, phi.order)
    return ps.exp_series(ps.TruncatedSeries(log_h))


def build_extremal(spec: PhiSpec, order: int = ps.DEFAULT_ORDER) -> ExtremalSet:
    """Construct the extremal bundle for a spec.

    Series route: k' = exp(sum B_n z^n / n), and K' by composing k' with
    z^2 and taking the series square root.  Deterministic, so results are
    memoized by value, however the order is spelled.
    """
    return _build_extremal(spec, ps.as_order(order))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _build_extremal(spec: PhiSpec, order: int) -> ExtremalSet:
    k_prime = k_prime_series(phi_series(spec, order))
    K_prime = ps.sqrt_series(ps.compose_with_selfmap(k_prime, ps.monomial(1.0, 2, order)))

    h_m1 = h_at(spec, -1.0)
    k_m1 = k_at(spec, -1.0)
    if not (h_m1 < 0.0 < -h_m1):
        raise InconsistencyError(f"h(-1) = {h_m1} has the wrong sign for {spec.label()}")
    return ExtremalSet(k_prime, K_prime, float(h_m1), float(k_m1))


def growth_exponent(spec: PhiSpec, x: float) -> float:
    """integral_0^x (phi(t) - 1)/t dt, the log of h(x)/x.

    Janowski-style and lemniscate families have elementary forms; the
    expblend integral is summed from its (entire) series; strongly falls
    back to adaptive quadrature.
    """
    return growth_evaluator(spec)(float(x))


def growth_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """:func:`growth_exponent` for one spec as a function of a float, its
    family dispatched and its parameters unpacked once.  Integrands call
    this."""
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        if b == 0.0:
            formula = lambda x: a * x
        else:
            power = (a - b) / b
            formula = lambda x: power * math.log(1.0 + b * x)
    elif spec.family == "lemniscate":
        (s,) = spec.params
        formula = lambda x: s * (2.0 * x + s * x * x / 2.0)
    elif spec.family == "expblend":
        (alpha,) = spec.params

        def formula(x: float) -> float:
            total, term = 0.0, 1.0
            for n in range(1, 60):
                term *= x / n
                total += term / n
                if abs(term) < 1e-18:
                    break
            return (1.0 - alpha) * total

    else:
        table, at_zero = _growth_table(spec)
        lookup = table.__call__

        def formula(x: float) -> float:
            if x <= _TABLE_HI:
                return lookup(x) - at_zero
            return integrate_1d(_growth_integrand(spec), 0.0, x, _BOUNDARY_TOL).value

    def growth(x: float) -> float:
        if not (-1.0 <= x < 1.0):
            raise DomainError(f"growth exponent defined on [-1, 1), got {x}")
        if x == 0.0:
            return 0.0
        return formula(x)

    growth.formula = formula  # for x != 0 in [-1, 1), unchecked
    return growth


def _growth_integrand(spec: PhiSpec):
    """(phi(t)-1)/t on [-1, 1], whose value at 0 is its limit there."""
    top, *rest = phi_series(spec, 32).coeffs[:0:-1].tolist()  # the head past phi_0, reversed
    phi = phi_evaluator(spec)

    def integrand(t: float) -> float:
        if abs(t) < _SERIES_SWITCH:
            # (phi(t)-1)/t from the coefficient vector, exact at t = 0
            return ps._horner(top, rest, t)
        return (phi(t) - 1.0) / t

    return integrand


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _growth_table(spec: PhiSpec) -> tuple[AntiderivativeTable, float]:
    """Piecewise-Chebyshev antiderivative of (phi(t)-1)/t on [-1, 0.9995],
    so pointwise k' evaluations stay cheap inside adaptive quadrature,
    with its value at the origin of the growth exponent."""
    table = AntiderivativeTable(_growth_integrand(spec), -1.0, _TABLE_HI, 1e-12)
    return table, table(0.0)


def h_at(spec: PhiSpec, x: float) -> float:
    """Pointwise h(x) = x k'(x) on [-1, 1) straight from the spec (no
    series), as a power for Janowski-style specs with B != 0."""
    return h_evaluator(spec)(float(x))


def h_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """:func:`h_at` for one spec as a function of a float."""
    ab = as_janowski(spec)
    k_prime = None if ab is not None and ab[1] != 0.0 else k_prime_evaluator(spec)

    def h(x: float) -> float:
        if not (-1.0 <= x < 1.0):
            raise DomainError(f"h is evaluated on [-1, 1), got {x}")
        if k_prime is not None:
            return x * k_prime(x)
        a, b = ab
        base = 1.0 + b * x
        if base <= 0.0:
            raise DomainError(f"h of {spec.label()} is singular at x={x}")
        return x * base ** ((a - b) / b)

    return h


def k_at(spec: PhiSpec, x: float) -> float:
    """Pointwise k(x) = integral_0^x k'(t) dt on [-1, 1): closed form for
    Janowski-style specs, else quadrature of the k' evaluator."""
    x = float(x)
    if not (-1.0 <= x < 1.0):
        raise DomainError(f"k is evaluated on [-1, 1), got {x}")
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        if b == 0.0:  # k' = e^{at}
            return (math.exp(a * x) - 1.0) / a  # a > b = 0 so a != 0
        if a == 0.0:  # k' = (1+bt)^{-1}
            return math.log(1.0 + b * x) / b
        return ((1.0 + b * x) ** (a / b) - 1.0) / a
    if x == 0.0:
        return 0.0
    g = k_prime_evaluator(spec)
    try:
        if x > 0:
            return integrate_1d(g, 0.0, x, _BOUNDARY_TOL).value
        return -integrate_1d(g, x, 0.0, _BOUNDARY_TOL).value
    except BudgetError as exc:
        # where k is large an absolute 1e-11 is beyond double precision, so
        # the same bound relative to |k| is accepted
        best = exc.best
        if best is None or not math.isfinite(best):
            raise
        if not exc.error_estimate <= _BOUNDARY_TOL * max(1.0, abs(best)):
            raise
        return best if x > 0 else -best


def k_prime_at(spec: PhiSpec, x: float) -> float:
    """Pointwise k'(x) = exp(growth exponent); strictly positive."""
    return k_prime_evaluator(spec)(float(x))


def k_prime_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """:func:`k_prime_at` for one spec as a function of a float."""
    growth = growth_evaluator(spec)
    formula = growth.formula  # growth itself only answers x = 0 and raises outside [-1, 1)
    return lambda x: math.exp(formula(x) if x != 0.0 and -1.0 <= x < 1.0 else growth(x))


def K_prime_at(spec: PhiSpec, t: float) -> float:
    """Pointwise (k'(t^2))^{1/2} via the growth exponent (no series)."""
    return math.exp(0.5 * growth_exponent(spec, t * t))
