import math

import numpy as np
import pytest

from bohrcc.catalog import janowski, lemniscate, sakaguchi
from bohrcc.errors import BudgetError, ParameterError
from bohrcc.quadrature import (
    AntiderivativeTable,
    Integrand1D,
    QuadratureResult,
    integrate_1d,
    integrate_nested,
)
from bohrcc.solver import ClassId, distance_integral_at, lhs_at


class TestIntegrate1D:
    @pytest.mark.parametrize("degree", range(11))
    def test_polynomial_exactness(self, degree):
        f = Integrand1D(lambda t, d=degree: (d + 1) * t**d, 1.0 if degree == 0 else 0.0)
        out = integrate_1d(f, 0.0, 0.8, 1e-12)
        assert out.value == pytest.approx(0.8 ** (degree + 1), abs=1e-13)

    def test_zero_function(self):
        out = integrate_1d(Integrand1D(lambda t: 0.0, 0.0), 0.0, 0.9, 1e-12)
        assert out.value == 0.0

    def test_empty_interval(self):
        out = integrate_1d(Integrand1D(lambda t: 1.0, 1.0), 0.3, 0.3, 1e-12)
        assert out.value == 0.0 and out.evaluations == 0

    def test_result_carries_error_and_count(self):
        out = integrate_1d(Integrand1D(math.exp, 1.0), 0.0, 0.9, 1e-11)
        assert isinstance(out, QuadratureResult)
        assert 0.0 <= out.abs_error_estimate <= 1e-11
        assert out.evaluations > 0

    def test_budget_error_carries_best_estimate(self):
        f = Integrand1D(lambda t: math.sin(50 * t) ** 2, 0.0)
        with pytest.raises(BudgetError) as err:
            integrate_1d(f, 0.0, 1.0, 1e-300)
        assert err.value.best is not None
        assert abs(err.value.best - (0.5 - math.sin(100.0) / 200.0)) < 1e-8
        assert "exceeds tol" in str(err.value) and err.value.error_estimate > 1e-300

    def test_domain_validation(self):
        f = Integrand1D(lambda t: t, 0.0, (0.0, 0.5))
        with pytest.raises(ParameterError):
            integrate_1d(f, 0.0, 0.9, 1e-10)
        with pytest.raises(ParameterError):
            integrate_1d(f, 0.0, 0.4, -1.0)
        with pytest.raises(ParameterError):
            Integrand1D(lambda t: t, 0.0, (0.0, 1.5))


class TestIntegrateNested:
    def test_constant_inner(self):
        # (1/s) * integral_0^s 1 dt = 1, so the double integral is r
        out = integrate_nested(Integrand1D(lambda t: 1.0, 1.0), 0.7, 1e-11)
        assert out.value == pytest.approx(0.7, abs=1e-11)

    def test_linear_inner(self):
        # inner 2t -> outer integrand s -> r^2/2
        out = integrate_nested(Integrand1D(lambda t: 2.0 * t, 0.0), 0.6, 1e-11)
        assert out.value == pytest.approx(0.18, abs=1e-11)

    def test_zero_radius(self):
        assert integrate_nested(Integrand1D(lambda t: 1.0, 1.0), 0.0, 1e-11).value == 0.0

    def test_full_range_janowski_series_oracle(self):
        # inner = M_{k'} M_phi = (1+t)/(1-t)^3; termwise the double integral
        # is sum c_n r^{n+1}/(n+1)^2
        inner = Integrand1D(lambda t: (1.0 + t) / (1.0 - t) ** 3, 1.0)
        n = 80
        mkp = np.arange(1, n + 1, dtype=float)
        mphi = np.full(n, 2.0)
        mphi[0] = 1.0
        c = np.convolve(mkp, mphi)[:n]
        r = 0.3
        want = sum(c[k] * r ** (k + 1) / (k + 1) ** 2 for k in range(n))
        out = integrate_nested(inner, r, 1e-10)
        assert out.value == pytest.approx(want, abs=1e-8)

    def test_left_limit_is_used_near_zero(self):
        calls = []

        def inner(t):
            calls.append(t)
            return 1.0 + t

        out = integrate_nested(Integrand1D(inner, 1.0), 0.5, 1e-10)
        # integral_0^r (1/s)(s + s^2/2) ds = r + r^2/4
        assert out.value == pytest.approx(0.5 + 0.25 / 4.0, abs=1e-10)


class TestAntiderivativeTable:
    def test_matches_exact_antiderivative(self):
        table = AntiderivativeTable(math.cos, 0.0, 1.0, 1e-12)
        for s in np.linspace(0.0, 1.0, 17):
            assert table(s) == pytest.approx(math.sin(s), abs=1e-12)

    def test_handles_endpoint_derivative_singularity(self):
        # sqrt has an infinite derivative at 0; the table must still deliver
        table = AntiderivativeTable(math.sqrt, 0.0, 1.0, 1e-11)
        for s in (0.1, 0.5, 1.0):
            assert table(s) == pytest.approx(2.0 / 3.0 * s**1.5, abs=1e-9)


class TestClosedFormCrossChecks:
    @pytest.mark.parametrize("g", [0.0, 0.25, 0.45])
    def test_ks_lhs_matches_elementary_form(self, g):
        for r in (0.1, 0.3, 0.5):
            want = g / 2 * math.log((1 + r) / (1 - r)) + (1 - g) * r / (1 - r)
            got = lhs_at(ClassId.KS, sakaguchi(g), r)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("g", [0.0, 0.25, 0.45])
    def test_ks_distance_matches_elementary_form(self, g):
        for r in (0.2, 0.6, 1.0):
            want = (1 - g) * math.log((1 + r) / math.sqrt(1 + r * r)) + g * math.atan(r)
            got = distance_integral_at(ClassId.KS, sakaguchi(g), r)
            assert got == pytest.approx(want, abs=1e-9)

    def test_ks_distance_at_one_sakaguchi_zero(self):
        assert distance_integral_at(ClassId.KS, sakaguchi(0.0), 1.0) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-10
        )


class TestSeriesQuadratureAgreement:
    @pytest.mark.parametrize("spec", [janowski(1, -1), lemniscate(0.5)], ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_lhs_agreement(self, spec, class_id):
        for r in (0.1, 0.2, 1 / 3):
            q = lhs_at(class_id, spec, r, "quadrature")
            s = lhs_at(class_id, spec, r, "series")
            assert abs(q - s) <= 1e-8

    @pytest.mark.parametrize("class_id", [ClassId.KS, ClassId.CS], ids=lambda c: c.value)
    def test_distance_agreement(self, class_id):
        for r in (0.1, 0.2, 1 / 3):
            q = distance_integral_at(class_id, lemniscate(0.5), r, "quadrature")
            s = distance_integral_at(class_id, lemniscate(0.5), r, "series")
            assert abs(q - s) <= 1e-8


class TestMonotonicity:
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_lhs_nondecreasing(self, class_id):
        vals = [lhs_at(class_id, lemniscate(0.5), r) for r in np.linspace(0.05, 0.6, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLeftLimitMetadata:
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_left_limit_matches_extrapolation(self, class_id):
        f = lhs_at  # noqa: F841  (documentation only)
        from bohrcc.solver import lhs_integrand

        integrand = lhs_integrand(class_id, janowski(1, -1))
        # Richardson-style: f(h) -> left_limit as h -> 0
        vals = [integrand(h) for h in (1e-3, 1e-5, 1e-7)]
        assert abs(vals[-1] - integrand.left_limit) <= 1e-6
        assert abs(vals[-1] - integrand.left_limit) <= abs(vals[0] - integrand.left_limit)
