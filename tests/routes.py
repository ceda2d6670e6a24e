"""Second evaluation routes, kept as test oracles for production's one route.

Production takes the distance integral of Ks and Cs by quadrature only
(``solver.distance_integral_at``).  Here it is also the exact termwise
integration of its series, so the two can check each other; the series
curve is pinned to the last bit in ``test_solver.DISTANCE_SERIES_PINS``.
The subordination lemma (Lemma 1 of Bhowmik and Das 2018), which every
radius rests on, is checked on series here too, and production's closed
positivity predicate ``catalog.has_positive_coeffs`` has the signs of the
order-64 series as its oracle.  ``FAMILY_BOXES`` draws each family's
parameters from its admissible box for the property tests.

Production builds K' = (k'(z^2))^{1/2} as exp(G(z^2)/2) from the growth
series G (``extremal.extremal_kernels``).  The construction it replaced,
the series square root of k' composed with z^2, is kept here as its
oracle (:func:`sqrt_K_prime`), with the general series operations it
reads: :func:`monomial`, :func:`compose_with_selfmap` and
:func:`sqrt_series`.

Production solves every Sc corollary as h(r) = -h(-1).  For sakaguchi(g)
the paper writes that equation as r + 2 r^e = 1 with e = 1/(2(1 - g)),
kept here as its oracle (:func:`sc_sakaguchi_paper_root`).

Production applies the class transform T to coefficient arrays in one
step (``ClassId.transform``).  Here T is built from series operations,
one integration or an integration, a division by z and an integration
(:func:`series_transform`), as the oracle of the guide curve
(:func:`series_lhs_curve`) and of the campaign members.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import brentq

from bohrcc import power_series as ps
from bohrcc import solver
from bohrcc.catalog import PhiSpec, phi_series
from bohrcc.errors import DomainError, ParameterError
from bohrcc.quadrature import DEFAULT_TOL
from bohrcc.solver import ClassId
from bohrcc.verifier import SelfMap

#: each family's admissible box, as PhiSpec checks it
FAMILY_BOXES = {
    "janowski": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda ab: ab[1] < ab[0]),
    "sakaguchi": st.tuples(st.floats(0.0, 1.0, exclude_max=True)),
    "lemniscate": st.tuples(st.floats(0.0, math.sqrt(0.5), exclude_min=True)),
    "expblend": st.tuples(st.floats(0.0, 1.0, exclude_max=True)),
    "strongly": st.tuples(st.floats(0.0, 1.0, exclude_min=True)),
    "wang": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_min=True)),
}
BOX_SPECS = st.sampled_from(sorted(FAMILY_BOXES)).flatmap(
    lambda family: FAMILY_BOXES[family].map(lambda params: PhiSpec(family, params))
)


def allclose(a: ps.TruncatedSeries, b: ps.TruncatedSeries, tol: float = 1e-12) -> bool:
    """Coefficientwise comparison up to the shared truncation order, to an
    absolute ``tol`` with no relative term."""
    n = min(a.order, b.order)
    return bool(np.all(np.abs(a.coeffs[:n] - b.coeffs[:n]) <= tol))


def reflect(s: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """The series of f(-z): odd coefficients change sign."""
    signs = np.where(np.arange(s.order) % 2 == 0, 1.0, -1.0)
    return ps.TruncatedSeries(s.coeffs * signs)


def monomial(coefficient: float, degree: int, order: int = ps.DEFAULT_ORDER) -> ps.TruncatedSeries:
    """The series ``coefficient * z**degree`` stored to the given order."""
    if degree < 0 or order <= 0:
        raise DomainError("degree must be >= 0 and order >= 1")
    c = np.zeros(order)
    if degree < order:
        c[degree] = coefficient
    return ps.TruncatedSeries(c)


def shift_up(s: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """Multiply by z, keeping the order (top coefficient is dropped)."""
    out = np.zeros(s.order)
    out[1:] = s.coeffs[:-1]
    return ps.TruncatedSeries(out)


def integrate_from_zero(s: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """Termwise antiderivative vanishing at 0; order grows by one."""
    out = np.zeros(s.order + 1)
    out[1:] = s.coeffs / np.arange(1, s.order + 1)
    return ps.TruncatedSeries(out)


def divide_by_z(s: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """Divide by z a series with zero constant term; order shrinks by one."""
    if s.coeffs[0] != 0.0:
        raise DomainError("divide_by_z requires a zero constant term")
    if s.order == 1:
        return ps.TruncatedSeries(np.zeros(1))
    return ps.TruncatedSeries(s.coeffs[1:].copy())


def series_transform(class_id: ClassId, c: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """The class transform T of c, one series operation at a time: f ->
    integral_0^z f, or f -> integral_0^z (1/x) integral_0^x f when nested."""
    if class_id.nested:
        return integrate_from_zero(divide_by_z(integrate_from_zero(c)))
    return integrate_from_zero(c)


def series_lhs_curve(class_id: ClassId, spec: PhiSpec, order: int) -> ps.TruncatedSeries:
    """T(M_K M_phi), the guide curve of ``solver._series_lhs_curve``, with T
    from :func:`series_transform`."""
    m_kernel = ps.majorant(solver.kernel_series(class_id, spec, order))
    return series_transform(class_id, ps.mul(m_kernel, ps.majorant(phi_series(spec, order))))


def sqrt_series(s: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """Square root of a series with constant term 1 (direct recurrence).
    Each coefficient is also written into a reversed buffer, so each step's
    dot product reads two contiguous slices."""
    if s.coeffs[0] != 1.0:
        raise DomainError("sqrt_series requires constant term exactly 1")
    n = s.order
    out = np.zeros(n)
    rev = np.zeros(n)  # rev[n-1-j] = out[j]
    out[0] = rev[n - 1] = 1.0
    for m in range(1, n):
        # out[m-1] .. out[1] = rev[n-m : n-1]
        conv = np.dot(out[1:m], rev[n - m : n - 1]) if m >= 2 else 0.0
        out[m] = rev[n - 1 - m] = 0.5 * (s.coeffs[m] - conv)
    return ps.TruncatedSeries(out)


def compose_with_selfmap(s: ps.TruncatedSeries, w: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """Taylor coefficients of s(w(z)) for a map w fixing 0.

    Horner-on-series; truncation order is the shorter of the two operands.
    Maps with a single nonzero coefficient (w = c * z**m) take a cheap
    re-indexing path.
    """
    if w.coeffs[0] != 0.0:
        raise DomainError("composition requires w(0) = 0")
    n = min(s.order, w.order)
    nz = np.nonzero(w.coeffs)[0]
    if nz.size == 0:
        out = np.zeros(n)
        out[0] = s.coeffs[0]
        return ps.TruncatedSeries(out)
    if nz.size == 1:
        m, c = int(nz[0]), w.coeffs[nz[0]]
        out = np.zeros(n)
        k_max = (n - 1) // m
        out[::m][: k_max + 1] = s.coeffs[: k_max + 1] * c ** np.arange(k_max + 1)
        return ps.TruncatedSeries(out)
    wc = w.coeffs[:n]
    acc = np.zeros(n)
    acc[0] = s.coeffs[n - 1]
    for k in range(n - 2, -1, -1):
        acc = np.convolve(acc, wc)[:n]
        acc[0] += s.coeffs[k]
    return ps.TruncatedSeries(acc)


def sqrt_K_prime(k_prime: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """K' = (k'(z^2))^{1/2} as the series square root of k' composed with z^2."""
    return sqrt_series(compose_with_selfmap(k_prime, monomial(1.0, 2, k_prime.order)))


def _series_distance_curve(class_id: ClassId, spec: PhiSpec, order: int) -> ps.TruncatedSeries:
    """T(K(iz) phi(-z)) for the classes with an even kernel K, whose K(iz)
    carries the sign (-1)^n on z^{2n}: 1/(1+z^2) for Ks, (k'(-z^2))^{1/2} for Cs."""
    if class_id in (ClassId.SC, ClassId.CC):
        raise ParameterError(f"{class_id.value} has a boundary-value target, not an integral")
    rotated = solver.kernel_series(class_id, spec, order).coeffs.copy()
    rotated[2::4] *= -1.0
    product = ps.mul(ps.TruncatedSeries(rotated), reflect(phi_series(spec, order)))
    return series_transform(class_id, product)


def distance_integral_at(
    class_id: ClassId,
    spec: PhiSpec,
    r: float,
    method: str = "quadrature",
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> float:
    """The distance-bound integral at radius r (Ks and Cs only) by either
    route: production's quadrature, or the series oracle."""
    if method == "series":
        return ps.evaluator(_series_distance_curve(class_id, spec, order))(r)
    if method != "quadrature":
        raise ParameterError(f"unknown method {method!r}")
    return solver.distance_integral_at(class_id, spec, r, tol)


def to_series(omega: SelfMap, order: int) -> ps.TruncatedSeries:
    """The self-map epsilon * z^power as a series of the given order."""
    return monomial(omega.epsilon, omega.power, order)


def check_subordination_lemma(
    f: ps.TruncatedSeries, omega: SelfMap, r_grid: Sequence[float]
) -> bool:
    """Majorant comparison for q = f o omega: sum |q_n| r^n stays below
    sum |f_n| r^n on a grid of radii at or below 1/3."""
    grid = [float(r) for r in r_grid]
    if not grid or any(not (0.0 < r <= 1.0 / 3.0) for r in grid):
        raise ParameterError("r_grid must lie in (0, 1/3]")
    q = compose_with_selfmap(f, to_series(omega, f.order))
    mf, mq = ps.evaluator(ps.majorant(f)), ps.evaluator(ps.majorant(q))
    return all(mq(r) <= mf(r) + 1e-10 for r in grid)


def series_has_positive_coeffs(spec: PhiSpec) -> bool:
    """The signs of phi's order-64 series: every coefficient past the
    constant nonnegative, the leading one strictly positive."""
    c = phi_series(spec, ps.DEFAULT_ORDER).coeffs
    return bool(c[1] > 0.0 and np.all(c[1:] >= 0.0))


def sc_sakaguchi_paper_root(gamma: float) -> float:
    """The root of r + 2 r^e = 1, e = 1/(2(1 - gamma)): the paper's form of
    the Sc corollary h(r) = -h(-1) for sakaguchi(gamma), whose h is
    x (1 - x)^(2 gamma - 2)."""
    e = 1.0 / (2.0 * (1.0 - gamma))
    return brentq(lambda r: r + 2.0 * r**e - 1.0, 0.0, 1.0, xtol=1e-16)
