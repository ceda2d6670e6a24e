import hashlib
import json
import math
import re
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from oracle import exp_series, janowski_k
from routes import (
    allclose,
    compose_with_selfmap,
    integrate_from_zero,
    monomial,
    reflect,
    shift_up,
    sqrt_K_prime,
)
from scipy.integrate import quad

from bohrcc import extremal
from bohrcc import power_series as ps
from bohrcc.catalog import (
    PhiSpec,
    expblend,
    janowski,
    lemniscate,
    phi_evaluator,
    phi_series,
    sakaguchi,
    strongly,
    wang,
)
from bohrcc.errors import BudgetError, DomainError, InconsistencyError, ParameterError
from bohrcc.extremal import (
    build_extremal,
    growth_evaluator,
    h_evaluator,
    k_at,
    k_prime_evaluator,
)
from bohrcc.quadrature import integrate_1d

ALL_SPECS = [
    janowski(1.0, -1.0),
    janowski(0.5, 0.25),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.03),
    strongly(0.5),
    wang(0.5, 1.0),
]

#: sha256 of build_extremal(spec, order).k_prime and .K_prime coefficient
#: bytes for the six canonical specs at orders 8, 64 and 256, keyed
#: '<label> order <n> <field>'
BUNDLE_PINS = json.loads((Path(__file__).parent / "golden" / "bundle_sha256.json").read_text())


@pytest.mark.parametrize("key", sorted(BUNDLE_PINS))
def test_bundle_bits(key):
    head, field = key.rsplit(" ", 1)
    label, order = head.rsplit(" order ", 1)
    spec = next(s for s in ALL_SPECS if s.label() == label)
    coeffs = getattr(build_extremal(spec, int(order)), field).coeffs
    assert hashlib.sha256(coeffs.tobytes()).hexdigest() == BUNDLE_PINS[key]


class TestClosedForms:
    def test_full_range_janowski_is_koebe(self):
        spec = janowski(1, -1)
        es = build_extremal(spec)
        # h(z) = z k'(z) = z/(1-z)^2: coefficient n at z^n
        assert np.allclose(shift_up(es.k_prime).coeffs, np.arange(64), atol=1e-10)
        assert es.h_at_minus_one == pytest.approx(-0.25, abs=1e-12)
        assert es.k_at_minus_one == pytest.approx(-0.5, abs=1e-12)
        assert h_evaluator(spec)(1 / 3) == pytest.approx(0.75, abs=1e-12)
        assert k_at(spec, 1 / 3) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 0.9, 1.0])
    def test_janowski_b0_boundary(self, a):
        es = build_extremal(janowski(a, 0.0))
        assert -es.h_at_minus_one == pytest.approx(math.exp(-a), abs=1e-12)

    @pytest.mark.parametrize("a", [1e-16, 1e-300])
    def test_janowski_b0_small_a(self, a):
        # k = (e^{ax} - 1)/a tends to x as a -> 0, and expm1 keeps that limit
        # where e^{ax} - 1 would cancel (to -1.11 at a = 1e-16, x = -1)
        for x in (-1.0, -0.5, 0.5):
            assert k_at(janowski(a, 0.0), x) == x

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-1e-6, 1e-6), b=st.floats(-1.0, -1e-4))
    def test_janowski_small_a(self, a, b):
        # the Cc target -k(-1): the power (1 - b)^{a/b} rounds to 1 for a tiny
        # a, and k(-1) = (power - 1)/a kept none of its digits
        want = janowski_k(a, b, -1.0)
        assert abs(k_at(janowski(a, b), -1.0) - want) <= 4e-15 * abs(want)

    def test_janowski_b0_smallest_a(self):
        assert k_at(janowski(5e-324, 0.0), -1.0) == -1.0
        assert k_at(wang(0.0, 5e-324), -1.0) == -1.0

    def test_lemniscate_growth(self):
        s = 0.5
        for r in (0.2, 1 / 3, 0.7):
            want = r * math.exp(s * (2 * r + s * r * r / 2))
            assert h_evaluator(lemniscate(s))(r) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("g", [0.0, 0.25, 0.4])
    def test_sakaguchi_growth_identities(self, g):
        es = build_extremal(sakaguchi(g))
        e = 2 * (1 - g)
        h = h_evaluator(sakaguchi(g))
        assert h(1 / 3) == pytest.approx(3 ** (e - 1) / 2**e, abs=1e-10)
        assert -es.h_at_minus_one == pytest.approx(1.0 / 2**e, abs=1e-10)
        # quadrature route must agree with the closed form
        phi = phi_evaluator(sakaguchi(g))
        f = lambda t: (phi(t) - 1.0) / t if abs(t) > 1e-12 else 2 * (1 - g)
        direct = (1 / 3) * math.exp(quad(f, 0, 1 / 3, epsabs=1e-13)[0])
        assert h(1 / 3) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("a", [0.0, 0.03, 0.05, 0.07])
    def test_expblend_boundary_constant(self, a):
        es = build_extremal(expblend(a))
        assert -es.h_at_minus_one == pytest.approx(0.450859463 ** (1 - a), abs=1e-6)

    def test_expblend_growth_value(self):
        assert h_evaluator(expblend(0.0))(1 / 3) == pytest.approx(0.479357902, abs=1e-8)

    def test_strongly_growth_value(self):
        es = build_extremal(strongly(0.5))
        assert h_evaluator(strongly(0.5))(1 / 3) == pytest.approx(0.482023176, abs=1e-8)
        assert -es.h_at_minus_one == pytest.approx(0.415759153, abs=1e-8)


class TestSeriesIdentities:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_h_equals_z_times_k_prime(self, spec):
        es = build_extremal(spec)
        prod = ps.mul(monomial(1.0, 1, 64), es.k_prime)
        assert allclose(shift_up(es.k_prime), prod, 1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_odd_extremal_square_identity(self, spec):
        # (z K'(z))^2 == h(z^2): the odd starlike extremal squared
        es = build_extremal(spec, 48)
        zKp = shift_up(es.K_prime)
        lhs = ps.mul(zKp, zKp)
        rhs = compose_with_selfmap(shift_up(es.k_prime), monomial(1.0, 2, 48))
        assert allclose(lhs, rhs, 1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_K_prime_is_even_series(self, spec):
        es = build_extremal(spec)
        assert np.all(es.K_prime.coeffs[1::2] == 0.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_normalizations(self, spec):
        es = build_extremal(spec)
        h, k = shift_up(es.k_prime), integrate_from_zero(es.k_prime)
        assert h.coeffs[0] == 0.0 and h.coeffs[1] == 1.0
        assert k.coeffs[0] == 0.0 and k.coeffs[1] == 1.0
        assert es.h_at_minus_one < 0.0 < -es.h_at_minus_one


#: the six canonical specs and two mixed-sign Janowski specs
K_PRIME_SPECS = [
    janowski(1.0, -1.0),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.03),
    strongly(0.5),
    wang(0.5, 1.0),
    janowski(0.5, 0.3),
    janowski(0.9, 0.5),
]


@cache
def _mp_K_prime_even(spec: PhiSpec, order: int) -> tuple:
    """K'_0, K'_2, K'_4, ... at 40 digits: exp(G(w)/2), w = z^2, by the
    oracle's exp recurrence on the same double phi coefficients production reads."""
    phi = phi_series(spec, order).coeffs
    with mp.workdps(40):
        half_log = [mpf(0)] + [mpf(float(phi[j])) / (2 * j) for j in range(1, (order + 1) // 2)]
        return tuple(exp_series(half_log))


class TestKPrimeAccuracy:
    """K' = exp(G(z^2)/2) against a 40-digit run of the same recurrence.  The
    square root of k'(z^2) it replaced cancels: 3.2e-9 relative at order 64
    and negative coefficients for nonnegative phi (31 for lemniscate(0.5)
    at order 256)."""

    @pytest.mark.parametrize("order", [64, 256])
    @pytest.mark.parametrize("spec", K_PRIME_SPECS, ids=lambda s: s.label())
    def test_relative_error_against_mpmath(self, spec, order):
        K = build_extremal(spec, order).K_prime.coeffs
        assert np.all(K[1::2] == 0.0)
        with mp.workdps(40):
            worst = max(
                abs((mpf(float(K[2 * j])) - want) / want)
                for j, want in enumerate(_mp_K_prime_even(spec, order))
            )
        assert worst <= 4e-15

    @pytest.mark.parametrize("order", [64, 256, 1024])
    @pytest.mark.parametrize("spec", K_PRIME_SPECS[:6], ids=lambda s: s.label())
    def test_nonnegative_phi_gives_nonnegative_coefficients(self, spec, order):
        es = build_extremal(spec, order)
        assert np.all(es.k_prime.coeffs >= 0.0) and np.all(es.K_prime.coeffs >= 0.0)

    @pytest.mark.parametrize("order", [64, 256])
    @pytest.mark.parametrize("spec", K_PRIME_SPECS, ids=lambda s: s.label())
    def test_square_root_route_agrees(self, spec, order):
        # the square root route's own error reaches 3.1e-15 for sakaguchi(0.25) at 256
        es = build_extremal(spec, order)
        K = es.K_prime.coeffs
        assert np.max(np.abs(sqrt_K_prime(es.k_prime).coeffs - K)) <= 1e-14 * np.max(np.abs(K))


class TestReflection:
    """phi(-z) flips the signs of phi's odd coefficients, and the k' and K'
    built from it flip the same way, so every majorant a class lhs reads is
    unchanged: phi(-z) has the lhs of phi."""

    KERNELS = {
        "phi": lambda phi: phi,
        "k_prime": lambda phi: extremal.extremal_kernels(phi)[0],
        "K_prime": lambda phi: extremal.extremal_kernels(phi)[1],
    }

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize(
        "spec",
        [
            janowski(1.0, -1.0),
            sakaguchi(0.25),
            lemniscate(0.5),
            expblend(0.03),
            strongly(0.5),
            wang(0.5, 1.0),
            janowski(0.9, 0.5),
            janowski(1.0, 0.999),
        ],
        ids=lambda s: s.label(),
    )
    def test_majorant_is_reflection_invariant(self, spec, kernel):
        build = self.KERNELS[kernel]
        phi = phi_series(spec, 64)
        plain = build(phi)
        if kernel != "phi":  # the kernel built here is the one the extremal bundle carries
            assert np.array_equal(getattr(build_extremal(spec, 64), kernel).coeffs, plain.coeffs)
        assert np.array_equal(ps.majorant(build(reflect(phi))).coeffs, ps.majorant(plain).coeffs)


class TestGuards:
    def test_h_minus_one_must_be_negative(self, monkeypatch):
        monkeypatch.setattr(extremal, "h_evaluator", lambda spec: lambda x: 0.5)
        with pytest.raises(InconsistencyError, match=r"^h\(-1\) = 0\.5 has the wrong sign for lemniscate\(s=0\.5\)$"):
            extremal._build_extremal.__wrapped__(lemniscate(0.5), 8)

    @pytest.mark.parametrize("spec", [lemniscate(0.5), strongly(0.5), expblend(0.03)], ids=lambda s: s.label())
    def test_k_at_zero_needs_no_quadrature(self, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("k(0) went through quadrature")

        monkeypatch.setattr(extremal, "integrate_1d", refuse)
        assert k_at(spec, 0.0).hex() == "0x0.0p+0"  # +0.0, not the -0.0 of a reversed empty integral


class TestPointwiseEvaluators:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_h_series_matches_pointwise(self, spec):
        h, h_pointwise = ps.evaluator(shift_up(build_extremal(spec).k_prime)), h_evaluator(spec)
        for x in (-0.4, -0.1, 0.2, 1 / 3):
            assert h(x) == pytest.approx(h_pointwise(x), abs=1e-11)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_k_series_matches_pointwise(self, spec):
        k = ps.evaluator(integrate_from_zero(build_extremal(spec).k_prime))
        for x in (-0.4, 0.25, 1 / 3):
            assert k(x) == pytest.approx(k_at(spec, x), abs=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_K_prime_series_vs_pointwise_sqrt(self, spec):
        series, growth = ps.evaluator(build_extremal(spec).K_prime), growth_evaluator(spec)
        for t in (0.1, 0.3, 0.5):
            series_val = series(t)
            assert series_val == pytest.approx(math.exp(0.5 * growth(t * t)), abs=1e-11)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_h_strictly_increasing_for_positive(self, spec):
        # h'(t) = k'(t) phi(t) > 0 on [0, 1)
        k_prime, phi = k_prime_evaluator(spec), phi_evaluator(spec)
        for t in np.linspace(0.0, 0.9, 10):
            assert k_prime(float(t)) * phi(float(t)) > 0.0

    def test_growth_exponent_at_zero(self):
        assert growth_evaluator(janowski(1, -1))(0.0) == 0.0

    @pytest.mark.parametrize("spec", [strongly(0.5), strongly(0.2)], ids=lambda s: s.label())
    def test_growth_exponent_table_branch(self, spec):
        # the table branch subtracts the cached table value at 0
        table, at_zero = extremal._growth_table(spec)
        assert at_zero == table(0.0)
        growth = growth_evaluator(spec)
        for x in (-1.0, -0.6, -0.05, 0.05, 0.4, 0.9995):
            assert growth(x) == table(x) - table(0.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_growth_integrand_head_matches_polyval(self, spec):
        head = phi_series(spec, 32).coeffs[1:]
        f = extremal._growth_integrand(spec)
        assert f(0.0) == float(head[0])
        for t in np.linspace(-0.0999, 0.0999, 41):
            t = float(t)
            assert f(t) == float(np.polynomial.polynomial.polyval(t, head))

    def test_large_k_is_accepted_to_a_relative_error(self):
        # strongly(1) has k = x/(1-x): about 999 here, where an absolute 1e-11 is out of reach
        assert k_at(strongly(1.0), 0.999) == pytest.approx(999.0, abs=1e-8)

    @pytest.mark.parametrize(
        "x, best, error, want",
        [
            (0.5, 1000.0, 1e-8, 1000.0),
            (-0.5, 1000.0, 1e-8, -1000.0),
            (0.5, 1000.0, 2e-8, None),
            (0.5, 0.5, 2e-11, None),  # below |k| = 1 the bound stays absolute
            (0.5, None, None, None),  # a non-finite value carries no estimate
        ],
        ids=["relative", "relative-negative-x", "too-large", "absolute", "no-estimate"],
    )
    def test_k_budget_rule(self, monkeypatch, x, best, error, want):
        def budget(*args, **kwargs):
            raise BudgetError("error estimate exceeds tol", best=best, error_estimate=error)

        monkeypatch.setattr(extremal, "integrate_1d", budget)
        if want is None:
            with pytest.raises(BudgetError):
                k_at(strongly(0.5), x)
        else:
            assert k_at(strongly(0.5), x) == want

    def test_fractional_order_is_rejected(self):
        with pytest.raises(ParameterError, match="^order must be an integer, got 64.5$"):
            build_extremal(strongly(0.5), 64.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            h_evaluator(janowski(1, -1))(1.0)
        with pytest.raises(DomainError):
            k_at(janowski(1, -1), -1.5)

    @pytest.mark.parametrize("x", ["0.5", b"0.5", True], ids=["str", "bytes", "bool"])
    def test_k_takes_a_real_x_only(self, x):
        # a string or a bool is refused, not read as 0.5 or 1.0
        with pytest.raises(ParameterError, match=re.escape(f"got {x!r}") + "$"):
            k_at(lemniscate(0.5), x)

    def test_boundary_values_via_quadrature_fallbacks(self):
        # strongly has no closed forms at all; spot-check h(-1), k(-1)
        # against direct quadrature of the defining integrals
        es = build_extremal(strongly(0.5))
        f = lambda t: ((((1 + t) / (1 - t)) ** 0.5) - 1.0) / t if abs(t) > 1e-12 else 1.0
        want_h = -math.exp(quad(f, 0.0, -1.0, epsabs=1e-13)[0])
        assert es.h_at_minus_one == pytest.approx(want_h, abs=1e-10)
        kp = lambda t: math.exp(quad(f, 0.0, t, epsabs=1e-13)[0])
        want_k = quad(kp, 0.0, -1.0, epsabs=1e-11, limit=200)[0]
        assert es.k_at_minus_one == pytest.approx(want_k, abs=1e-9)


class TestStronglyTableBranch:
    """The strongly growth and k' evaluators fetch their growth table once,
    when they are built, and then read it as ``_growth_table`` gives it;
    beyond 0.9995 they add to its last value the integral past it, taken in
    v = -log(1 - t)/64, where the integrand stays bounded."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_values_are_the_table_read_directly(self, alpha):
        spec = strongly(alpha)
        growth, k_prime = extremal.growth_evaluator(spec), extremal.k_prime_evaluator(spec)
        table, _ = extremal._growth_table(spec)
        grid = [float(x) for x in np.linspace(-1.0, extremal._TABLE_HI, 501)]
        for x in grid + [0.0, -0.0, 1e-300, -1e-300, math.nextafter(-1.0, 0.0)]:
            want = 0.0 if x == 0.0 else table(x) - table(0.0)
            assert growth(x).hex() == want.hex(), x
            assert k_prime(x).hex() == math.exp(want).hex(), x

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_quadrature_branch_past_the_table(self, alpha):
        # where the integral in t from 0 still converges, it agrees
        spec = strongly(alpha)
        growth, k_prime = extremal.growth_evaluator(spec), extremal.k_prime_evaluator(spec)
        integrand = extremal._growth_integrand(spec)
        for x in (math.nextafter(extremal._TABLE_HI, 1.0), 0.9997, 0.9999):
            want = integrate_1d(integrand, 0.0, x, extremal._BOUNDARY_TOL).value
            assert growth(x) == pytest.approx(want, abs=1e-12), x
            assert k_prime(x).hex() == math.exp(growth(x)).hex(), x

    @pytest.mark.parametrize("alpha", [0.5, 0.72, 0.9, 1.0])
    def test_growth_near_one_against_mpmath(self, alpha):
        # in t the integrand peaks like (1 - t)^-alpha at x, within an ulp of
        # the pole, which adaptive quadrature in t cannot resolve
        growth = extremal.growth_evaluator(strongly(alpha))
        a = mp.mpf(alpha)
        f = lambda t: (((1 + t) / (1 - t)) ** a - 1) / t
        for x in (1.0 - 1e-12, math.nextafter(1.0, 0.0)):
            with mp.workdps(30):
                ends = [1 - mp.mpf(10) ** -k for k in range(1, 17) if 1 - mp.mpf(10) ** -k < x]
                want = mp.quad(f, [0, *ends, mp.mpf(x)])
            assert growth(x) == pytest.approx(float(want), abs=1e-12), x

    def test_domain_errors_keep_their_text(self):
        spec = strongly(0.5)
        text = r"^growth exponent defined on \[-1, 1\), got "
        for fn in (extremal.growth_evaluator(spec), extremal.k_prime_evaluator(spec)):
            for x in (math.nextafter(-1.0, -2.0), -1.5, 1.0, 1.5, math.nan):
                with pytest.raises(DomainError, match=text + re.escape(str(x)) + "$"):
                    fn(x)

    def test_table_is_fetched_once_when_built(self):
        spec = strongly(0.375)
        extremal._growth_table.cache_clear()
        growth = extremal.growth_evaluator(spec)
        info = extremal._growth_table.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        for x in [*np.linspace(-1.0, 0.99, 50), 0.0, 0.9999]:
            growth(float(x))
        assert extremal._growth_table.cache_info() == info  # reading it fetches nothing
        k_prime = extremal.k_prime_evaluator(spec)  # a new growth closure: one fetch, a hit
        for x in np.linspace(-1.0, 0.99, 50):
            k_prime(float(x))
        info = extremal._growth_table.cache_info()
        assert (info.hits, info.misses) == (1, 1)
