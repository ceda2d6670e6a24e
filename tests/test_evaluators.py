"""The per-spec pointwise evaluators against the per-call dispatch they replaced.

``catalog.phi_evaluator``, ``catalog.majorant_phi_evaluator``,
``extremal.growth_evaluator``, ``extremal.k_prime_evaluator``,
``extremal.h_evaluator`` and ``power_series.evaluator`` dispatch on the
family (or read the series) once per spec, and ``extremal.k_at`` reads its
closed form from the catalog record.  The functions below are the route
they replaced, which redid that dispatch on every call; they are the oracle
here.  Values must agree bit for bit (hex forms, so the sign of a zero
counts) and errors must carry the same type and text.  The one exception
is k of a Janowski-style spec: its closed form goes through log1p and
expm1, where the old route's power cancelled for a small A, so its values
are held to the 30-digit ``oracle.janowski_k`` instead.
"""

import math

import numpy as np
import pytest

from _bench_inputs import BENCH_INPUTS
from oracle import janowski_k

from bohrcc import catalog, extremal, solver
from bohrcc import power_series as ps
from bohrcc.catalog import PhiSpec, as_janowski
from bohrcc.errors import BudgetError, DomainError, PrecisionError
from bohrcc.quadrature import integrate_1d


# ---------------------------------------------------------------------------
# the per-call dispatch route (oracle)
# ---------------------------------------------------------------------------


def old_phi_at(spec, x):
    x = float(x)
    if not (-1.0 <= x <= 1.0):
        raise DomainError(f"phi is evaluated on [-1, 1], got {x}")
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        denom = 1.0 + b * x
        if denom <= 0.0:
            raise DomainError(f"pole of {spec.label()} at x={x}")
        return (1.0 + a * x) / denom
    if spec.family == "lemniscate":
        (s,) = spec.params
        return (1.0 + s * x) ** 2
    if spec.family == "expblend":
        (a,) = spec.params
        return a + (1.0 - a) * math.exp(x)
    (a,) = spec.params
    if x == 1.0:
        raise DomainError(f"pole of {spec.label()} at x=1")
    return ((1.0 + x) / (1.0 - x)) ** a


def old_majorant_phi_at(spec, t):
    t = float(t)
    if not (0.0 <= t < 1.0):
        raise DomainError("majorant evaluated for 0 <= t < 1")
    ab = as_janowski(spec)
    if ab is not None:
        a, b = ab
        return 1.0 + (a - b) * t / (1.0 - abs(b) * t)
    return old_phi_at(spec, t)


def old_growth_exponent(spec, x):
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
    table, at_zero = extremal._growth_table(spec)
    if x <= extremal._TABLE_HI:
        return table(x) - at_zero
    # past the table end, in v = -log(1 - t)/64: u = 1 - t = e^{-64v}
    (a,) = spec.params

    def tail(v):
        u = math.exp(-64.0 * v)
        return 64.0 * (((2.0 - u) / u) ** a - 1.0) * u / (1.0 - u)

    v = -math.log1p(-x) / 64.0
    rest = integrate_1d(tail, extremal._V_HI, v, extremal._BOUNDARY_TOL).value
    return table(extremal._TABLE_HI) - at_zero + rest


def old_h_at(spec, x):
    x = float(x)
    if not (-1.0 <= x < 1.0):
        raise DomainError(f"h is evaluated on [-1, 1), got {x}")
    ab = as_janowski(spec)
    if ab is not None and ab[1] != 0.0:
        a, b = ab
        base = 1.0 + b * x
        if base <= 0.0:
            raise DomainError(f"h of {spec.label()} is singular at x={x}")
        return x * base ** ((a - b) / b)
    return x * math.exp(old_growth_exponent(spec, x))


def old_k_at(spec, x):
    """k by quadrature of k', the route of every family without a closed k."""
    x = float(x)
    if not (-1.0 <= x < 1.0):
        raise DomainError(f"k is evaluated on [-1, 1), got {x}")
    if x == 0.0:
        return 0.0
    k_prime = lambda t: math.exp(old_growth_exponent(spec, t))
    tol = extremal._BOUNDARY_TOL
    try:
        if x > 0:
            return integrate_1d(k_prime, 0.0, x, tol).value
        return -integrate_1d(k_prime, x, 0.0, tol).value
    except BudgetError as exc:
        best = exc.best
        if best is None or not math.isfinite(best):
            raise
        if not exc.error_estimate <= tol * max(1.0, abs(best)):
            raise
        return best if x > 0 else -best


def old_eval_at(s, x, tail_tol=None):
    x = float(x)
    if not abs(x) < 1.0:  # NaN is outside the disk too
        raise DomainError(f"series evaluation requires |x| < 1, got {x}")
    if tail_tol is not None:
        r = abs(x)
        hint = 0.0 if r == 0.0 else abs(s.coeffs[-1]) * r**s.order / (1.0 - r)
        if hint > tail_tol:
            raise PrecisionError(
                f"truncation tail ~{hint:.3g} exceeds tolerance {tail_tol:.3g} at r={abs(x):.6g}"
            )
    return float(np.polynomial.polynomial.polyval(x, s.coeffs))


def old_lhs_integrand(class_id, spec, order=64):
    maj = lambda t: old_majorant_phi_at(spec, t)
    if class_id is solver.ClassId.KS:
        return lambda t: maj(t) / (1.0 - t * t)
    es = extremal.build_extremal(spec, order)
    if not catalog.has_positive_coeffs(spec):
        series = ps.majorant(es.K_prime if class_id is solver.ClassId.CS else es.k_prime)
        m = lambda t: old_eval_at(series, t, tail_tol=1e-11)
    elif class_id is solver.ClassId.CS:
        m = lambda t: math.exp(0.5 * old_growth_exponent(spec, t * t))
    else:
        m = lambda t: math.exp(old_growth_exponent(spec, t))
    return lambda t: m(t) * maj(t)


def old_distance_integrand(class_id, spec):
    if class_id is solver.ClassId.KS:
        return lambda t: old_phi_at(spec, -t) / (1.0 + t * t)
    return lambda t: math.exp(0.5 * old_growth_exponent(spec, -t * t)) * old_phi_at(spec, -t)


# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """A value's hex form, or the type and text of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc).__name__, str(exc)
    return float(value).hex()


#: all six families at canonical and edge-of-box parameters, Janowski-style
#: specs with B < 0, B = 0 and B > 0, and the benchmark's edge inputs
SPECS = list(
    dict.fromkeys(
        [PhiSpec(family, params) for family, params in BENCH_INPUTS.CANONICAL]
        + [PhiSpec(family, params) for _, family, params in BENCH_INPUTS.EDGE]
        + [
            PhiSpec("janowski", (0.5, 0.0)),
            PhiSpec("janowski", (0.0, -0.5)),
            PhiSpec("janowski", (-0.5, -1.0)),
            PhiSpec("janowski", (0.9, 0.3)),
            PhiSpec("sakaguchi", (0.0,)),
            PhiSpec("lemniscate", (math.sqrt(0.5),)),
            PhiSpec("expblend", (0.0,)),
            PhiSpec("strongly", (1.0,)),
            PhiSpec("wang", (0.0, 0.5)),
            PhiSpec("wang", (1.0, 1.0)),
        ]
    )
)
SPEC_IDS = [s.label() for s in SPECS]

_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-12, 0.05, 0.0999, 0.1, 0.3333333333333333]
#: [-1, 1]: a grid, the endpoints, points near 0 and the table's upper edge
FULL = sorted({float(x) for x in np.linspace(-1.0, 1.0, 201)} | set(_SPECIAL) | {-1.0, 1.0})
FULL += [-0.0, 0.9995, 0.99951, 0.9999, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0)]
#: [0, 1): a grid and the points near 0 and 1
HALF = [x for x in FULL if 0.0 <= x < 1.0]
#: points outside every evaluator's domain
OUTSIDE = [-1.5, math.nextafter(-1.0, -2.0), 1.0, math.nextafter(1.0, 2.0), 2.0, math.nan, -math.inf]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
class TestPerSpecEvaluators:
    def test_phi(self, spec):
        new = catalog.phi_evaluator(spec)
        for x in FULL + OUTSIDE:
            want = outcome(old_phi_at, spec, x)
            assert outcome(new, x) == want, x

    def test_majorant_phi(self, spec):
        new = catalog.majorant_phi_evaluator(spec)
        for t in HALF + OUTSIDE + [-0.5, -1e-300]:
            want = outcome(old_majorant_phi_at, spec, t)
            assert outcome(new, t) == want, t

    def test_growth_and_k_prime(self, spec):
        growth, k_prime = extremal.growth_evaluator(spec), extremal.k_prime_evaluator(spec)
        for x in FULL + OUTSIDE:
            want = outcome(old_growth_exponent, spec, x)
            assert outcome(growth, x) == want, x
            want = outcome(lambda y: math.exp(old_growth_exponent(spec, y)), x)
            assert outcome(k_prime, x) == want, x

    def test_h(self, spec):
        new = extremal.h_evaluator(spec)
        for x in FULL + OUTSIDE:
            want = outcome(old_h_at, spec, x)
            assert outcome(new, x) == want, x

    def test_k(self, spec):
        ab = as_janowski(spec)
        if ab is None:  # the quadrature families cost one integral a point
            for x in [-1.0, -0.5, 1.0 / 3.0]:
                assert outcome(extremal.k_at, spec, x) == outcome(old_k_at, spec, x), x
            return
        for x in FULL + OUTSIDE:
            if not math.isfinite(x):  # k_at refuses a non-finite x as a parameter
                want = ("ParameterError", f"k is evaluated at a real x in [-1, 1), got {x!r}")
                assert outcome(extremal.k_at, spec, x) == want, x
                continue
            if not -1.0 <= x < 1.0:
                assert outcome(extremal.k_at, spec, x) == outcome(old_k_at, spec, x), x
                continue
            want = janowski_k(*ab, x)
            assert abs(extremal.k_at(spec, x) - want) <= 4e-15 * abs(want), x

    @pytest.mark.parametrize("class_id", list(solver.ClassId), ids=lambda c: c.value)
    def test_lhs_integrand(self, spec, class_id):
        # the mixed-sign kernels read a series, whose tail check raises
        # PrecisionError near 1 for some specs
        new, old = solver.lhs_integrand(class_id, spec), old_lhs_integrand(class_id, spec)
        for t in HALF + OUTSIDE:
            assert outcome(new, t) == outcome(old, t), t

    @pytest.mark.parametrize("class_id", [solver.ClassId.KS, solver.ClassId.CS], ids=["Ks", "Cs"])
    def test_distance_integrand(self, spec, class_id):
        new, old = solver.distance_integrand(class_id, spec), old_distance_integrand(class_id, spec)
        for t in HALF + [1.0] + OUTSIDE:
            assert outcome(new, t) == outcome(old, t), t


def test_the_oracle_sees_poles_and_tail_errors():
    # the comparisons above exercise both error kinds, not only values
    assert outcome(old_phi_at, catalog.sakaguchi(0.25), 1.0)[0] == "DomainError"
    assert outcome(old_phi_at, catalog.strongly(0.5), 1.0) == (
        "DomainError", "pole of strongly(alpha=0.5) at x=1"
    )
    kernel = old_lhs_integrand(solver.ClassId.SC, catalog.janowski(1.0, 0.999))
    assert outcome(kernel, 0.9) == (
        "PrecisionError", "truncation tail ~1.75e-07 exceeds tolerance 1e-11 at r=0.9"
    )


@pytest.mark.parametrize("order", [8, 16, 64, 128])
def test_series_evaluator_matches_eval_route(order):
    rng = np.random.default_rng(order)
    series = [
        extremal.build_extremal(catalog.strongly(0.5), order).K_prime,
        ps.TruncatedSeries(rng.standard_normal(order)),
        ps.TruncatedSeries(np.zeros(order)),
    ]
    points = FULL + [-x for x in HALF] + OUTSIDE
    for s in series:
        for tail_tol in (None, 1e-11, 1e-3):
            new = ps.evaluator(s, tail_tol)
            for x in points:
                want = outcome(old_eval_at, s, x, tail_tol)
                assert outcome(new, x) == want, (x, tail_tol)
