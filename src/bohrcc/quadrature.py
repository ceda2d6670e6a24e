"""Adaptive 1-D and nested 2-D integration.

Integrands are plain functions of one float, finite on the whole closed
interval they are integrated over (they handle their own removable points
internally).  The 1-D entry point wraps QUADPACK's adaptive Gauss-Kronrod
rule.  The nested entry point evaluates

    integral_0^r (1/s) integral_0^s f(t) dt ds

by tabulating the inner antiderivative as a piecewise Chebyshev
interpolant (the outer integral re-queries it thousands of times) and
feeding the outer quotient, whose s -> 0 limit is exactly ``f(0.0)``,
back through the adaptive 1-D rule.  A table lookup is a plain-float
Clenshaw recurrence that repeats ``numpy.polynomial.chebyshev.chebval``'s
operations in the same order, so it is bit-identical to evaluating the
panel's ``Chebyshev`` object but skips numpy's per-call overhead.  A panel
build likewise repeats ``Chebyshev.interpolate``'s arithmetic with the
Chebyshev nodes and the transposed Vandermonde matrix computed once at
import, and then ``Chebyshev.integ``'s (``pu.mapparms`` and ``chebint``)
over plain floats, so every panel has the bits numpy would give it without
building a numpy polynomial object.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebvander
from scipy.integrate import quad

from .errors import BudgetError, ParameterError

#: Default absolute tolerance for radius work; table reproduction uses 1e-11.
DEFAULT_TOL = 1e-10

_OUTER_LIMIT_CUTOFF = 1e-8  # below this, (1/s) * inner antiderivative ~ inner(0)

_DEGREE = 24  # interpolation degree of each table panel
_NODES = chebpts1(_DEGREE + 1)
_VANDER_T = chebvander(_NODES, _DEGREE).T  # the transposed view, as chebinterpolate uses it


def check_tol(tol: float) -> None:
    """Raise ParameterError unless tol is a positive, finite number."""
    if not (0.0 < tol < math.inf):
        raise ParameterError(f"tolerance must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise BudgetError("quadrature produced a non-finite value")


def integrate_1d(
    f: Callable[[float], float], a: float, b: float, tol: float = DEFAULT_TOL
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod estimate of the integral of f over [a, b], an
    interval within [-1, 1], with absolute error at most tol, else a
    BudgetError carrying the best estimate found."""
    check_tol(tol)
    if not (-1.0 <= a <= b <= 1.0):
        raise ParameterError(f"[{a}, {b}] is not an interval within [-1, 1]")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    out = quad(f, a, b, epsabs=tol, epsrel=1e-13, limit=300, full_output=True)
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


class AntiderivativeTable:
    """Piecewise-Chebyshev antiderivative A(s) = integral_a^s f of an
    integrand on [a, b].

    Panels are split adaptively: a panel is accepted when the trailing
    Chebyshev coefficients certify the interpolation error, or when the
    panel is so narrow that its whole contribution is below budget (this
    absorbs integrable endpoint singularities in derivatives).

    ``pieces`` holds, for each accepted panel, its antiderivative's map
    parameters, coefficient list and left-edge value, the ones
    ``P = Chebyshev(interpolant, domain=[lo, hi]).integ()`` would have.
    Lookups run Clenshaw's recurrence over plain floats in ``chebval``'s
    operation order, so ``table(s)`` equals
    ``cumulative[i] + float(P(s) - P(edges[i]))`` bit for bit.
    ``evaluations`` counts the calls of fn, one per node of every panel
    tried.
    """

    _MAX_PANELS = 4000

    def __init__(self, fn, a, b, tol):
        self.edges = [a]
        self.cumulative = [0.0]  # A at panel left edges
        self.pieces = []  # (off, scl, coefficient list, value at left edge)
        self.tail_bound = 0.0
        self.evaluations = 0
        coef_tol = 0.25 * tol / (b - a)

        stack = [(a, b)]
        while stack:
            lo, hi = stack.pop()
            width = hi - lo
            # Chebyshev.interpolate(fn, _DEGREE, domain=[lo, hi]) step by step:
            # pu.mapdomain's node map, then chebinterpolate's product and scaling
            xs = (lo + hi) / 2.0 + (hi - lo) / 2.0 * _NODES
            coef = np.dot(_VANDER_T, np.array([fn(x) for x in xs.tolist()]))
            self.evaluations += _DEGREE + 1
            coef[0] /= _DEGREE + 1
            coef[1:] /= 0.5 * (_DEGREE + 1)
            tail = float(np.max(np.abs(coef[-3:])))
            scale = float(np.max(np.abs(coef))) or 1.0
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
            if lo != self.edges[-1]:
                raise BudgetError("panel table built out of order")  # pragma: no cover
            off, scl, c = _antiderivative(coef.tolist(), lo, hi)
            left = _clenshaw(off, scl, c, lo)
            self.pieces.append((off, scl, c, left))
            self.edges.append(hi)
            self.cumulative.append(self.cumulative[-1] + (_clenshaw(off, scl, c, hi) - left))
            self.tail_bound += tail * width

    def __call__(self, s: float) -> float:
        idx = bisect.bisect_right(self.edges, s) - 1
        idx = min(max(idx, 0), len(self.pieces) - 1)
        off, scl, c, left = self.pieces[idx]
        return self.cumulative[idx] + (_clenshaw(off, scl, c, s) - left)


def _antiderivative(c: list, lo: float, hi: float) -> tuple[float, float, list]:
    """Map parameters and coefficient list of the antiderivative, zero at the
    window's centre, of the panel interpolant with coefficients c on [lo, hi]:
    ``Chebyshev(c, domain=[lo, hi]).integ()`` in plain floats, repeating
    ``pu.mapparms`` and ``chebint``'s operations in their order."""
    width = hi - lo
    off = (hi * -1.0 - lo * 1.0) / width  # pu.mapparms onto the window [-1, 1]
    scl = 2.0 / width
    inv = 1.0 / scl
    c = [a * inv for a in c]  # chebint's ``c *= scl`` with integ's scl = 1/scl
    n = len(c)
    t = [c[0] * 0, c[0], c[1] / 4] + [c[j] / (2 * (j + 1)) for j in range(2, n)]
    for j in range(2, n):
        t[j - 1] -= c[j] / (2 * (j - 1))
    t[0] += 0 - _clenshaw(0.0, 1.0, t, 0.0)  # the constant: chebval(0, t)
    return off, scl, t


def _clenshaw(off: float, scl: float, c: list, s: float) -> float:
    """A panel polynomial at s: the map x = off + scl*s, then Clenshaw's
    recurrence over the coefficient list (at least three of them) in
    ``chebval``'s operation order."""
    x = off + scl * s
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def integrate_nested(
    inner: Callable[[float], float], r: float, tol: float = DEFAULT_TOL
) -> QuadratureResult:
    """Evaluate integral_0^r (1/s) integral_0^s inner(t) dt ds.

    The outer integrand tends to ``inner(0.0)`` as s -> 0 (the mean value
    of the inner integrand); that limit is substituted below a fixed cutoff
    rather than extrapolated.
    """
    if not (0.0 <= r <= 1.0):
        raise ParameterError(f"nested integration needs 0 <= r <= 1, got {r}")
    check_tol(tol)
    if r == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    table = AntiderivativeTable(inner, 0.0, r, 0.25 * tol)

    def outer(s: float) -> float:
        if s < _OUTER_LIMIT_CUTOFF:
            return inner(0.0)
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
    return QuadratureResult(float(value), float(total_err), table.evaluations + int(info.get("neval", 0)))
