"""Adaptive 1-D and nested 2-D integration.

The 1-D entry point wraps QUADPACK's adaptive Gauss-Kronrod rule behind a
descriptor type that records the integrand's analytic limit at a removable
left endpoint.  The nested entry point evaluates

    integral_0^r (1/s) integral_0^s f(t) dt ds

by tabulating the inner antiderivative as a piecewise Chebyshev
interpolant (the outer integral re-queries it thousands of times) and
feeding the outer quotient, whose s -> 0 limit is exactly ``f.left_limit``,
back through the adaptive 1-D rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.integrate import quad

from .errors import BudgetError, ParameterError

#: Default absolute tolerance for radius work; table reproduction uses 1e-11.
DEFAULT_TOL = 1e-10

_OUTER_LIMIT_CUTOFF = 1e-8  # below this, (1/s) * inner antiderivative ~ left_limit


@dataclass(frozen=True)
class Integrand1D:
    """A scalar integrand with metadata.

    ``left_limit`` is the analytic limit of the evaluator at the left end
    of its domain, recorded for the cases where the raw expression there
    is 0/0.  Evaluators themselves must be finite on the whole closed
    domain (they handle their own removable points internally).
    """

    evaluator: Callable[[float], float]
    left_limit: float
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        lo, hi = self.domain
        if not (-1.0 <= lo < hi <= 1.0):
            raise ParameterError(f"domain must be an interval within [-1, 1], got {self.domain}")

    def __call__(self, x: float) -> float:
        return self.evaluator(x)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise BudgetError("quadrature produced a non-finite value")


def integrate_1d(f: Integrand1D, a: float, b: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Adaptive Gauss-Kronrod estimate of the integral of f over [a, b]
    with absolute error at most tol, else a BudgetError carrying the best
    estimate found."""
    if tol <= 0.0:
        raise ParameterError("tolerance must be positive")
    lo, hi = f.domain
    if not (lo - 1e-12 <= a <= b <= hi + 1e-12):
        raise ParameterError(f"[{a}, {b}] is outside the integrand domain [{lo}, {hi}]")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    out = quad(f.evaluator, a, b, epsabs=tol, epsrel=1e-13, limit=300, full_output=True)
    value, abserr, info = out[0], out[1], out[2]
    neval = int(info.get("neval", 0))
    if abserr > tol:
        warning = f": {out[3]}" if len(out) > 3 else ""  # QUADPACK's message, when it gave one
        raise BudgetError(
            f"quadrature error estimate {abserr:.3g} exceeds tol {tol:.3g}{warning}",
            best=value,
            error_estimate=abserr,
        )
    return QuadratureResult(float(value), float(abserr), neval)


class _CountingEvaluator:
    __slots__ = ("fn", "count")

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self.fn(x)


class AntiderivativeTable:
    """Piecewise-Chebyshev antiderivative A(s) = integral_a^s f of an
    integrand on [a, b].

    Panels are split adaptively: a panel is accepted when the trailing
    Chebyshev coefficients certify the interpolation error, or when the
    panel is so narrow that its whole contribution is below budget (this
    absorbs integrable endpoint singularities in derivatives).
    """

    _DEGREE = 24
    _MAX_PANELS = 4000

    def __init__(self, fn, a, b, tol):
        self.edges = [a]
        self.cumulative = [0.0]  # A at panel left edges
        self.pieces = []  # antiderivative polynomials, one per panel
        self.tail_bound = 0.0
        coef_tol = 0.25 * tol / (b - a)

        def sample(xs):  # interpolate() hands us the node array
            return np.array([fn(float(x)) for x in np.atleast_1d(xs)])

        stack = [(a, b)]
        while stack:
            lo, hi = stack.pop()
            width = hi - lo
            interp = Chebyshev.interpolate(sample, self._DEGREE, domain=[lo, hi])
            tail = float(np.max(np.abs(interp.coef[-3:])))
            scale = float(np.max(np.abs(interp.coef))) or 1.0
            # accept on certified convergence (down to the evaluator's own
            # roundoff floor) or when the committed error tail*width is
            # below budget; the latter terminates the splitting cascade at
            # endpoint singularities in derivatives.
            ok = tail <= max(coef_tol, 5e-14 * scale) or tail * width <= 0.05 * tol
            if not ok:
                if len(self.pieces) + len(stack) >= self._MAX_PANELS:
                    raise BudgetError(
                        "inner antiderivative table exceeded its panel budget",
                        best=None,
                    )
                mid = 0.5 * (lo + hi)
                stack.append((mid, hi))
                stack.append((lo, mid))
                continue
            anti = interp.integ()
            if lo != self.edges[-1]:
                raise BudgetError("panel table built out of order")  # pragma: no cover
            self.pieces.append(anti)
            self.edges.append(hi)
            self.cumulative.append(self.cumulative[-1] + float(anti(hi) - anti(lo)))
            self.tail_bound += tail * width
        self._edges = np.asarray(self.edges)

    def __call__(self, s: float) -> float:
        idx = int(np.searchsorted(self._edges, s, side="right")) - 1
        idx = min(max(idx, 0), len(self.pieces) - 1)
        anti = self.pieces[idx]
        return self.cumulative[idx] + float(anti(s) - anti(self._edges[idx]))


def integrate_nested(inner: Integrand1D, r: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Evaluate integral_0^r (1/s) integral_0^s inner(t) dt ds.

    The outer integrand tends to ``inner.left_limit`` as s -> 0 (the mean
    value of the inner integrand); that analytic limit is substituted
    below a fixed cutoff rather than extrapolated.
    """
    if not (0.0 <= r <= 1.0):
        raise ParameterError(f"nested integration needs 0 <= r <= 1, got {r}")
    if tol <= 0.0:
        raise ParameterError("tolerance must be positive")
    if r == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    counting = _CountingEvaluator(inner.evaluator)
    table = AntiderivativeTable(counting, 0.0, r, 0.25 * tol)

    def outer(s: float) -> float:
        if s < _OUTER_LIMIT_CUTOFF:
            return inner.left_limit
        return table(s) / s

    out = quad(outer, 0.0, r, epsabs=0.5 * tol, epsrel=1e-13, limit=300, full_output=True)
    value, abserr, info = out[0], out[1], out[2]
    total_err = abserr + table.tail_bound
    if total_err > tol:
        raise BudgetError(
            f"nested quadrature error estimate {total_err:.3g} exceeds tol {tol:.3g}",
            best=value,
            error_estimate=total_err,
        )
    return QuadratureResult(float(value), float(total_err), counting.count + int(info.get("neval", 0)))
