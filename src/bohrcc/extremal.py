"""Extremal functions for a given shape function phi.

The radius equations read four quantities per catalog spec, which
:func:`build_extremal` bundles as an :class:`ExtremalSet`:

* ``k'``  -- the convex extremal's derivative, 1 + z k''(z)/k'(z) = phi(z);
             it equals h(z)/z for the starlike extremal h, z h'(z)/h(z) =
             phi(z), so h = z k' and k is the antiderivative of k' vanishing
             at 0, coefficient by coefficient
* ``K'``  -- (k'(t^2))^{1/2}, the derivative of the odd convex extremal
* h(-1) and k(-1), the boundary values that serve as distance targets.

Both are exps of G = sum_n phi_n z^n / n: k' = exp G and K' = exp(G(z^2)/2), by a
recurrence that adds only nonnegative terms when phi's coefficients are nonnegative.

Pointwise values on [-1, 1) need no series: the ``*_evaluator`` closures
bind one spec for probes and integrands, uncached (a cache here holds
work, the bundle and the growth table, never a closure), and ``k_at`` is
read once per spec, at -1.  The formulas come from the spec's
``catalog.Family`` record; without a growth formula the exponent
integral_0^x (phi(t)-1)/t dt is computed by adaptive quadrature with the
removable point at 0 handled through the series of the integrand (its
value there is the leading phi coefficient).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from . import power_series as ps
from ._lazy import lazy_import
from .catalog import SPEC_CACHE_SIZE, PhiSpec, formulas_of, phi_evaluator, phi_series
from .errors import BudgetError, DomainError, InconsistencyError, as_real
from .quadrature import AntiderivativeTable, integrate_1d

np = lazy_import("numpy")

_SERIES_SWITCH = 0.1  # below this |t|, (phi(t)-1)/t is evaluated from its series
_BOUNDARY_TOL = 1e-11
_TABLE_HI = 0.9995  # cached growth-exponent table covers [-1, _TABLE_HI]
_V_HI = -math.log1p(-_TABLE_HI) / 64.0  # the table end in v = -log(1 - t)/64


class ExtremalSet(NamedTuple):
    """Immutable bundle of the extremal data the radius equations read;
    ``_replace`` gives a copy with some fields changed."""

    k_prime: ps.TruncatedSeries
    K_prime: ps.TruncatedSeries  # series in t of (k'(t^2))^{1/2}
    h_at_minus_one: float
    k_at_minus_one: float


def extremal_kernels(phi: ps.TruncatedSeries) -> tuple[ps.TruncatedSeries, ps.TruncatedSeries]:
    """k' = h/z = exp G and K' = exp(G(z^2)/2), G = sum_n phi_n z^n / n,
    both to the order of phi."""
    n = phi.order
    log_k_prime, log_K_prime = np.zeros(n), np.zeros(n)
    log_k_prime[1:] = phi.coeffs[1:] / np.arange(1, n)
    log_K_prime[::2] = 0.5 * log_k_prime[: (n + 1) // 2]  # G_j / 2 at z^{2j}
    return tuple(ps.exp_series(ps.TruncatedSeries(c)) for c in (log_k_prime, log_K_prime))


def build_extremal(spec: PhiSpec, order: int = ps.DEFAULT_ORDER) -> ExtremalSet:
    """Construct the extremal bundle for a spec.

    Series route: k' and K' from :func:`extremal_kernels`.  Deterministic,
    so results are memoized by value, however the order is spelled.
    """
    return _build_extremal(spec, ps.as_order(order))


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _build_extremal(spec: PhiSpec, order: int) -> ExtremalSet:
    k_prime, K_prime = extremal_kernels(phi_series(spec, order))

    h_m1 = h_evaluator(spec)(-1.0)
    k_m1 = k_at(spec, -1.0)
    if not (h_m1 < 0.0 < -h_m1):
        raise InconsistencyError(f"h(-1) = {h_m1} has the wrong sign for {spec.label()}")
    return ExtremalSet(k_prime, K_prime, float(h_m1), float(k_m1))


def growth_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """integral_0^x (phi(t) - 1)/t dt on [-1, 1), the log of h(x)/x, for one
    spec as a function of a float, its formula built once.  Integrands call this."""
    formula = _growth_formula(spec)
    return lambda x: formula(x) if x != 0.0 and -1.0 <= x < 1.0 else _growth_edge(x)


def _growth_edge(x: float) -> float:
    """The growth exponent where no formula is read: 0 at 0, else out of range."""
    if x == 0.0:
        return 0.0
    raise DomainError(f"growth exponent defined on [-1, 1), got {x}")


def _growth_formula(spec: PhiSpec) -> Callable[[float], float]:
    """The growth exponent for x != 0 in [-1, 1), unchecked: the catalog
    record's formula, or (strongly) a read of the cached antiderivative
    table, plus adaptive quadrature past its end in v = -log(1 - t)/64,
    which lies in [0, 1) for every float t < 1.  With u = 1 - t = e^{-64v},
    (phi(t)-1)/t dt = 64 (phi(1 - u) - 1) u/(1 - u) dv stays bounded for a
    pole of order at most 1 at t = 1, where the integrand in t does not."""
    fam, p = formulas_of(spec)
    if fam.growth is not None:
        return fam.growth(*p)
    table, at_zero = _growth_table(spec)
    lookup = table.__call__
    phi = fam.from_one(*p)

    def tail(v: float) -> float:
        u = math.exp(-64.0 * v)
        return 64.0 * (phi(u) - 1.0) * u / (1.0 - u)

    def formula(x: float) -> float:
        if x <= _TABLE_HI:
            return lookup(x) - at_zero
        rest = integrate_1d(tail, _V_HI, -math.log1p(-x) / 64.0, _BOUNDARY_TOL).value
        return lookup(_TABLE_HI) - at_zero + rest

    return formula


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


def h_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """Pointwise h(x) = x k'(x) on [-1, 1) for one spec, straight from the
    spec (no series): the catalog record's closed h where it has one."""
    fam, p = formulas_of(spec)
    if fam.h is not None:
        formula = fam.h(*p)
    else:
        growth = _growth_formula(spec)
        formula = lambda x: x * math.exp(growth(x)) if x != 0.0 else x  # h(+-0) = +-0 k'(0)

    def h(x: float) -> float:
        if not (-1.0 <= x < 1.0):
            raise DomainError(f"h is evaluated on [-1, 1), got {x}")
        return formula(x)

    return h


def k_at(spec: PhiSpec, x: float) -> float:
    """Pointwise k(x) = integral_0^x k'(t) dt on [-1, 1): the catalog
    record's closed k where it has one, else quadrature of the k' evaluator."""
    x = as_real(x, f"k is evaluated at a real x in [-1, 1), got {x!r}")
    if not (-1.0 <= x < 1.0):
        raise DomainError(f"k is evaluated on [-1, 1), got {x}")
    fam, p = formulas_of(spec)
    if fam.k is not None:
        return fam.k(*p)(x)
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


def k_prime_evaluator(spec: PhiSpec) -> Callable[[float], float]:
    """Pointwise k'(x) = exp(growth exponent) on [-1, 1) for one spec; positive."""
    formula = _growth_formula(spec)
    return lambda x: math.exp(formula(x) if x != 0.0 and -1.0 <= x < 1.0 else _growth_edge(x))
