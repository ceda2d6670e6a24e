"""Adaptive 1-D and nested 2-D integration.

Integrands are plain functions of one float, finite on the whole closed
interval they are integrated over (they handle their own removable points
internally).  The 1-D entry point wraps QUADPACK's adaptive Gauss-Kronrod
rule ``qagse``.  QUADPACK comes from scipy's compiled ``_quadpack``
extension, loaded by the first integral (not at import) straight from the
``integrate/`` directory that ``importlib.util.find_spec("scipy")`` names,
so neither scipy's package ``__init__`` nor ``scipy.integrate`` (and the
scipy.special, scipy.optimize and scipy.sparse.linalg it pulls in)
runs; a missing scipy is an ImportError from that first integral.  scipy
itself loads only when QUADPACK first runs, because the extension imports
``scipy._lib._ccallback`` on its first call.  The call is the one
``scipy.integrate.quad`` makes, so every value is the same.  The nested
entry point evaluates

    integral_0^r (1/s) integral_0^s f(t) dt ds

by tabulating the inner antiderivative as a piecewise Chebyshev
interpolant (the outer integral re-queries it thousands of times) and
feeding the outer quotient, whose s -> 0 limit is exactly ``f(0.0)``,
back through the adaptive 1-D rule.  A table lookup is a plain-float
Clenshaw recurrence that repeats ``numpy.polynomial.chebyshev.chebval``'s
operations in the same order, so it is bit-identical to evaluating the
panel's ``Chebyshev`` object but skips numpy's per-call overhead; panels
store their coefficients reversed, as the recurrence reads them, so a
lookup is one bisect and one loop in one frame.  A panel build likewise
repeats ``Chebyshev.interpolate``'s arithmetic with the Chebyshev nodes
and the transposed Vandermonde matrix computed once, by the first table
build (with the numpy operations ``chebpts1`` and ``chebvander`` run,
without importing ``numpy.polynomial``), and then
``Chebyshev.integ``'s (``pu.mapparms`` and ``chebint``) over plain floats,
so every panel has the bits numpy would give it without building a numpy
polynomial object.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import find_spec, module_from_spec
from typing import Callable

from ._lazy import lazy_import
from ._record import Record, store
from .errors import BudgetError, ParameterError, as_real

np = lazy_import("numpy")

#: Default absolute tolerance of radius solves and campaigns; boundary values take extremal's 1e-11.
DEFAULT_TOL = 1e-10

_OUTER_LIMIT_CUTOFF = 1e-8  # below this, (1/s) * inner antiderivative ~ inner(0)

_DEGREE = 24  # interpolation degree of each table panel


_NODES = _VANDER_T = None  # chebinterpolate's nodes and matrix, built by the first table


def _chebyshev_nodes_and_vander_t() -> tuple[list, np.ndarray]:
    """``chebpts1(n).tolist()`` and ``chebvander(nodes, n - 1).T`` for n =
    _DEGREE + 1, built on the first call and kept in ``_NODES`` and
    ``_VANDER_T``, by the numpy operations those two run: the sine of the
    same array, then the rows T_i = T_{i-1} * 2x - T_{i-2} of the C-ordered
    array whose ``moveaxis`` chebvander returns, so its ``.T`` is this very array."""
    global _NODES, _VANDER_T
    if _VANDER_T is None:
        n = _DEGREE + 1
        nodes = np.sin(0.5 * np.pi / n * np.arange(-n + 1, n + 1, 2))
        x2 = 2 * nodes
        v = np.empty((n, n))
        v[0] = 1.0
        v[1] = nodes
        for i in range(2, n):
            v[i] = v[i - 1] * x2 - v[i - 2]
        _NODES, _VANDER_T = nodes.tolist(), v
    return _NODES, _VANDER_T


_HALF_NODES = 0.5 * (_DEGREE + 1)  # chebinterpolate's divisor past the constant

#: qagse's ier codes for a result it could not certify; its code 6, invalid
#: input, needs limit < 1 or epsabs <= 0 with a tiny epsrel, which no call here makes
_IER_REASONS = {
    1: "subdivision limit reached",
    2: "roundoff error detected",
    3: "extremely bad integrand behaviour",
    4: "extrapolation table does not converge",
    5: "integral probably divergent",
}


def _load_qagse():
    """``_qagse`` from scipy's compiled ``integrate/_quadpack`` extension,
    loaded by the first integral, so a missing scipy or extension is an
    ImportError raised there, not at import.

    scipy's directory comes from its import spec, so neither
    ``scipy/__init__.py`` nor ``scipy/integrate/__init__.py`` runs, and the
    extension is not registered in ``sys.modules``.  scipy's version is read
    from its installed metadata, and only to name it in an ImportError."""
    scipy = find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    where = [os.path.join(p, "integrate") for p in scipy.submodule_search_locations]
    spec = PathFinder.find_spec("_quadpack", where)
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        raise ImportError(f"scipy {_scipy_version()} has no compiled integrate/_quadpack extension")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    qagse = getattr(module, "_qagse", None)
    if qagse is None:
        raise ImportError(f"scipy {_scipy_version()}'s integrate/_quadpack has no _qagse")
    return qagse


def _scipy_version() -> str:
    from importlib.metadata import version  # slow to import, and needed only on failure

    return version("scipy")


_QAGSE = None  # loaded by the first integral


def _quad(f: Callable[[float], float], a: float, b: float, epsabs: float) -> tuple:
    """QUADPACK's qagse over finite a < b, called as ``scipy.integrate.quad(f,
    a, b, epsabs=epsabs, epsrel=1e-13, limit=300, full_output=True)`` calls
    it: the value, the error estimate, the integrand evaluations and ier.
    An exception raised by f propagates unchanged."""
    global _QAGSE
    if _QAGSE is None:
        _QAGSE = _load_qagse()
    value, abserr, info, ier = _QAGSE(f, a, b, (), 1, epsabs, 1e-13, 300)
    return value, abserr, info["neval"], ier


def check_tol(tol) -> float:
    """tol as a float; ParameterError unless a positive, finite real (not a bool)."""
    what = f"tolerance must be positive and finite, got {tol!r}"
    tol = as_real(tol, what)
    if not tol > 0.0:
        raise ParameterError(what)
    return tol


class QuadratureResult(Record):
    """An integral's value, its absolute error estimate and the integrand
    evaluations spent; a non-finite value is a BudgetError."""

    __slots__ = ("value", "abs_error_estimate", "evaluations")

    def __init__(self, value: float, abs_error_estimate: float, evaluations: int):
        if not math.isfinite(value):
            raise BudgetError("quadrature produced a non-finite value")
        store(self, "value", value)
        store(self, "abs_error_estimate", abs_error_estimate)
        store(self, "evaluations", evaluations)


def integrate_1d(
    f: Callable[[float], float], a: float, b: float, tol: float = DEFAULT_TOL
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod estimate of the integral of f over [a, b], an
    interval within [-1, 1], with absolute error at most tol, else a
    BudgetError carrying the best estimate found."""
    tol = check_tol(tol)
    if not (-1.0 <= a <= b <= 1.0):
        raise ParameterError(f"[{a}, {b}] is not an interval within [-1, 1]")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    value, abserr, neval, ier = _quad(f, a, b, tol)
    if abserr > tol:
        reason = f": QUADPACK ier={ier}, {_IER_REASONS[ier]}" if ier else ""
        raise BudgetError(
            f"quadrature error estimate {abserr:.3g} exceeds tol {tol:.3g}{reason}",
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

    ``pieces`` holds, for each accepted panel, its :func:`_panel` lookup
    tuple: the table value at its left edge, then its antiderivative's map
    parameters, left-edge value and coefficients (reversed), the ones
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
        self.pieces = []  # the lookup tuple of each panel
        self.tail_bound = 0.0
        self.evaluations = 0
        coef_tol = 0.25 * tol / (b - a)

        nodes, vander_t = _chebyshev_nodes_and_vander_t()
        stack = [(a, b)]
        while stack:
            lo, hi = stack.pop()
            width = hi - lo
            # Chebyshev.interpolate(fn, _DEGREE, domain=[lo, hi]) step by step:
            # pu.mapdomain's node map, then chebinterpolate's product and scaling
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            coef = np.dot(vander_t, [fn(mid + half * x) for x in nodes]).tolist()
            self.evaluations += _DEGREE + 1
            coef = [coef[0] / (_DEGREE + 1)] + [c / _HALF_NODES for c in coef[1:]]
            mags = [abs(c) for c in coef]
            tail, scale = max(mags[-3:]), max(mags) or 1.0
            # accept on certified convergence (down to the evaluator's own
            # roundoff floor) or when the committed error tail*width is
            # below budget; the latter terminates the splitting cascade at
            # endpoint singularities in derivatives.  NaN coefficients fail.
            ok = tail <= max(coef_tol, 5e-14 * scale) or tail * width <= 0.05 * tol
            if not ok or math.isnan(sum(mags)):
                if len(self.pieces) + len(stack) >= self._MAX_PANELS:
                    raise BudgetError(
                        "inner antiderivative table exceeded its panel budget",
                        best=None,
                    )
                stack.append((mid, hi))
                stack.append((lo, mid))
                continue
            if lo != self.edges[-1]:
                raise BudgetError("panel table built out of order")  # pragma: no cover
            off, scl, c = self._antiderivative(coef, lo, hi)
            raw = _panel(-0.0, off, scl, 0.0, c)  # -0.0 + (P(s) - 0.0) is P(s) itself
            base, left = self.cumulative[-1], self(lo, raw)
            self.pieces.append(_panel(base, off, scl, left, c))
            self.edges.append(hi)
            self.cumulative.append(base + (self(hi, raw) - left))
            self.tail_bound += tail * width
        self._cuts = self.edges[1:-1]  # bisecting these clamps s to the first or last panel

    def __call__(self, s: float, panel: tuple | None = None) -> float:
        """A(s) from the panel holding s, or from the lookup tuple ``panel``."""
        if panel is None:
            panel = self.pieces[bisect_right(self._cuts, s)]
        base, off, scl, left, c1, c0, rest = panel
        x = off + scl * s
        x2 = 2 * x
        for a in rest:
            c0, c1 = a - c1, c0 + c1 * x2
        return base + ((c0 + c1 * x) - left)

    def _antiderivative(self, c: list, lo: float, hi: float) -> tuple[float, float, list]:
        """Map parameters and coefficients of ``Chebyshev(c, domain=[lo,
        hi]).integ()``, zero at the window's centre, in plain floats that
        repeat ``pu.mapparms`` and ``chebint``'s operations in their order."""
        width = hi - lo
        off = (hi * -1.0 - lo * 1.0) / width  # pu.mapparms onto the window [-1, 1]
        scl = 2.0 / width
        inv = 1.0 / scl
        c = [a * inv for a in c]  # chebint's ``c *= scl`` with integ's scl = 1/scl
        n = len(c)
        t = [c[0] * 0, c[0], c[1] / 4] + [c[j] / (2 * (j + 1)) for j in range(2, n)]
        for j in range(2, n):
            t[j - 1] -= c[j] / (2 * (j - 1))
        t[0] += 0 - self(0.0, _panel(-0.0, 0.0, 1.0, 0.0, t))  # the constant: chebval(0, t)
        return off, scl, t


def _panel(base: float, off: float, scl: float, left: float, c: list) -> tuple:
    """The lookup tuple of base + (P(s) - left) for the polynomial P with map
    x = off + scl*s and Chebyshev coefficients c (at least three), reversed."""
    return (base, off, scl, left, c[-1], c[-2], tuple(c[-3::-1]))


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
    tol = check_tol(tol)
    if r == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    table = AntiderivativeTable(inner, 0.0, r, 0.25 * tol)
    lookup = table.__call__  # bound once: the outer rule reads it at every node

    def outer(s: float) -> float:
        if s < _OUTER_LIMIT_CUTOFF:
            return inner(0.0)
        return lookup(s) / s

    value, abserr, neval, _ = _quad(outer, 0.0, r, 0.5 * tol)
    total_err = abserr + table.tail_bound
    if total_err > tol:
        raise BudgetError(
            f"nested quadrature error estimate {total_err:.3g} exceeds tol {tol:.3g}",
            best=value,
            error_estimate=total_err,
        )
    return QuadratureResult(float(value), float(total_err), table.evaluations + neval)
