import math
import re

import numpy as np
import pytest
import routes
from numpy.polynomial.chebyshev import Chebyshev, chebpts1, chebvander

from bohrcc import quadrature
from bohrcc.catalog import janowski, lemniscate, sakaguchi
from bohrcc.errors import BudgetError, ParameterError
from bohrcc.quadrature import (
    AntiderivativeTable,
    QuadratureResult,
    integrate_1d,
    integrate_nested,
)
from bohrcc.solver import ClassId, distance_integral_at, lhs_at, solve_radius, target_constant
from bohrcc.verifier import run_campaign


class TestIntegrate1D:
    @pytest.mark.parametrize("degree", range(11))
    def test_polynomial_exactness(self, degree):
        out = integrate_1d(lambda t, d=degree: (d + 1) * t**d, 0.0, 0.8, 1e-12)
        assert out.value == pytest.approx(0.8 ** (degree + 1), abs=1e-13)

    def test_zero_function(self):
        out = integrate_1d(lambda t: 0.0, 0.0, 0.9, 1e-12)
        assert out.value == 0.0

    def test_empty_interval(self):
        out = integrate_1d(lambda t: 1.0, 0.3, 0.3, 1e-12)
        assert out.value == 0.0 and out.evaluations == 0

    def test_result_carries_error_and_count(self):
        out = integrate_1d(math.exp, 0.0, 0.9, 1e-11)
        assert isinstance(out, QuadratureResult)
        assert 0.0 <= out.abs_error_estimate <= 1e-11
        assert out.evaluations > 0

    def test_budget_error_carries_best_estimate(self):
        f = lambda t: math.sin(50 * t) ** 2
        with pytest.raises(BudgetError) as err:
            integrate_1d(f, 0.0, 1.0, 1e-300)
        assert err.value.best is not None
        assert abs(err.value.best - (0.5 - math.sin(100.0) / 200.0)) < 1e-8
        assert "exceeds tol" in str(err.value) and err.value.error_estimate > 1e-300

    def test_domain_validation(self):
        # every integrand lives on [-1, 1]; an interval must lie within it, in order
        f = lambda t: t
        assert integrate_1d(f, -1.0, 1.0, 1e-10).value == pytest.approx(0.0, abs=1e-12)
        for a, b in ((0.0, 1.5), (-1.5, 0.0), (0.5, 0.4), (0.0, math.nan)):
            with pytest.raises(ParameterError):
                integrate_1d(f, a, b, 1e-10)
        with pytest.raises(ParameterError):
            integrate_1d(f, 0.0, 0.4, -1.0)


class TestIntegrateNested:
    def test_constant_inner(self):
        # (1/s) * integral_0^s 1 dt = 1, so the double integral is r
        out = integrate_nested(lambda t: 1.0, 0.7, 1e-11)
        assert out.value == pytest.approx(0.7, abs=1e-11)

    def test_linear_inner(self):
        # inner 2t -> outer integrand s -> r^2/2
        out = integrate_nested(lambda t: 2.0 * t, 0.6, 1e-11)
        assert out.value == pytest.approx(0.18, abs=1e-11)

    def test_zero_radius(self):
        assert integrate_nested(lambda t: 1.0, 0.0, 1e-11).value == 0.0

    @pytest.mark.parametrize("r", [-0.1, 1.5, math.nan])
    def test_radius_outside_the_unit_interval(self, r):
        with pytest.raises(ParameterError, match=f"^nested integration needs 0 <= r <= 1, got {r}$"):
            integrate_nested(lambda t: 1.0, r)

    def test_total_error_above_tol_carries_the_best_estimate(self):
        # a one-panel table, then QUADPACK's error floor of about 50 eps |value|
        # is far above 1e-300
        with pytest.raises(BudgetError, match="^nested quadrature error estimate .* exceeds tol 1e-300$") as exc:
            integrate_nested(lambda t: 1.0 + t, 0.5, 1e-300)
        assert exc.value.best == pytest.approx(0.5 + 0.25 / 4.0, abs=1e-14)
        assert 1e-300 < exc.value.error_estimate < 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_result(self, value):
        with pytest.raises(BudgetError, match="^quadrature produced a non-finite value$"):
            QuadratureResult(value, 0.0, 1)

    def test_full_range_janowski_series_oracle(self):
        # inner = M_{k'} M_phi = (1+t)/(1-t)^3; termwise the double integral
        # is sum c_n r^{n+1}/(n+1)^2
        inner = lambda t: (1.0 + t) / (1.0 - t) ** 3
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

        out = integrate_nested(inner, 0.5, 1e-10)
        # integral_0^r (1/s)(s + s^2/2) ds = r + r^2/4
        assert out.value == pytest.approx(0.5 + 0.25 / 4.0, abs=1e-10)
        # the whole outer range below the cutoff: every outer node reads inner(0.0)
        calls.clear()
        out = integrate_nested(inner, 1e-9, 1e-10)
        assert out.value == pytest.approx(1e-9, rel=1e-12)
        assert calls.count(0.0) > 0
        assert out.evaluations == len(calls)  # the table's nodes and the outer rule's


class TestToleranceGate:
    """check_tol is the one gate: a tolerance that is not a positive,
    finite real number is a ParameterError naming the value, everywhere."""

    ENTRY_POINTS = {
        "integrate_1d": lambda tol: integrate_1d(math.cos, 0.0, 0.5, tol),
        "integrate_nested": lambda tol: integrate_nested(math.cos, 0.5, tol),
        "solve_radius": lambda tol: solve_radius(ClassId.SC, lemniscate(0.5), 64, tol),
        "target_constant": lambda tol: target_constant(ClassId.CS, lemniscate(0.5), 64, tol),
        "run_campaign": lambda tol: run_campaign(ClassId.SC, lemniscate(0.5), 5, 1, tol=tol),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "tol", [None, "x", "1e-10", True, False, 0.0, -1e-10, math.inf, math.nan, np.bool_(True)]
    )
    def test_rejected(self, entry, tol):
        want = f"^tolerance must be positive and finite, got {re.escape(repr(tol))}$"
        with pytest.raises(ParameterError, match=want):
            self.ENTRY_POINTS[entry](tol)

    @pytest.mark.parametrize("tol", [1e-10, np.float64(1e-10), np.float32(1e-6), 1, np.int64(1)])
    def test_real_numbers_pass(self, tol):
        got = integrate_1d(math.cos, 0.0, 0.5, tol).value
        assert got == pytest.approx(math.sin(0.5), abs=float(tol))

    def test_numpy_float_solves_as_its_float(self):
        want = solve_radius(ClassId.SC, lemniscate(0.5), 64, 1e-10)
        assert solve_radius(ClassId.SC, lemniscate(0.5), 64, np.float64(1e-10)) is want


class TestAntiderivativeTable:
    def test_matches_exact_antiderivative(self):
        table = AntiderivativeTable(math.cos, 0.0, 1.0, 1e-12)
        for s in np.linspace(0.0, 1.0, 17):
            assert table(s) == pytest.approx(math.sin(s), abs=1e-12)

    def test_nan_node_fails_every_panel(self):
        # numpy's max of a NaN coefficient is NaN, so no split panel is ever accepted
        fn = lambda t: math.nan if t > 0.5 else math.cos(t)
        with pytest.raises(BudgetError, match="exceeded its panel budget"):
            AntiderivativeTable(fn, 0.0, 1.0, 1e-12)

    def test_handles_endpoint_derivative_singularity(self):
        # sqrt has an infinite derivative at 0; the table must still deliver
        table = AntiderivativeTable(math.sqrt, 0.0, 1.0, 1e-11)
        for s in (0.1, 0.5, 1.0):
            assert table(s) == pytest.approx(2.0 / 3.0 * s**1.5, abs=1e-9)


#: (integrand, a, b, tol): one panel, 21 panels (sqrt's endpoint
#: singularity) and 5 panels (a pole just right of the interval).  The
#: interval widths are not powers of two, so the panel maps round.
TABLE_CASES = [
    (math.cos, 0.1, 1.3, 1e-12),
    (math.sqrt, 0.0, 0.9, 1e-11),
    (lambda t: 1.0 / (1.02 - t), -0.7, 0.95, 1e-12),
]


def _coefficients(piece):
    """A lookup tuple's Chebyshev coefficients, lowest degree first."""
    *_, top, second, rest = piece
    return [*reversed(rest), second, top]


def _numpy_piece(table, idx):
    """Panel idx's antiderivative as numpy's ``Chebyshev`` on the panel."""
    coef = _coefficients(table.pieces[idx])
    return Chebyshev(coef, domain=[table.edges[idx], table.edges[idx + 1]])


def _numpy_lookup(table, s):
    """The table value through numpy: searchsorted and the panel's Chebyshev."""
    idx = int(np.searchsorted(np.asarray(table.edges), s, side="right")) - 1
    idx = min(max(idx, 0), len(table.pieces) - 1)
    anti = _numpy_piece(table, idx)
    return table.cumulative[idx] + float(anti(s) - anti(table.edges[idx]))


def _numpy_build(fn, a, b, tol):
    """A table's (edges, cumulative, tail_bound, antiderivative coefficient
    lists, map parameters, pieces) built through ``Chebyshev.interpolate``
    and ``Chebyshev.integ`` per panel, with the table's acceptance rule."""
    edges, cumulative, coefs, maps, panels, tail_bound = [a], [0.0], [], [], [], 0.0
    coef_tol = 0.25 * tol / (b - a)
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        sample = lambda xs: np.array([fn(float(x)) for x in np.atleast_1d(xs)])
        interp = Chebyshev.interpolate(sample, 24, domain=[lo, hi])
        tail = float(np.max(np.abs(interp.coef[-3:])))
        scale = float(np.max(np.abs(interp.coef))) or 1.0
        if not (tail <= max(coef_tol, 5e-14 * scale) or tail * (hi - lo) <= 0.05 * tol):
            mid = 0.5 * (lo + hi)
            stack += [(mid, hi), (lo, mid)]
            continue
        anti = interp.integ()
        off, scl = anti.mapparms()
        coefs.append(anti.coef.tolist())
        maps.append((float(off), float(scl)))
        c = anti.coef.tolist()  # the lookup tuple stores them highest degree first
        left = float(anti(lo))
        panels.append((cumulative[-1], float(off), float(scl), left, c[-1], c[-2], tuple(c[-3::-1])))
        edges.append(hi)
        cumulative.append(cumulative[-1] + float(anti(hi) - anti(lo)))
        tail_bound += tail * (hi - lo)
    return edges, cumulative, tail_bound, coefs, maps, panels


def _table_state(table):
    coefs = [_coefficients(piece) for piece in table.pieces]
    maps = [(off, scl) for _, off, scl, *_ in table.pieces]
    return table.edges, table.cumulative, table.tail_bound, coefs, maps, table.pieces


def _refuse(*args, **kwargs):
    raise AssertionError("table build went through numpy's Chebyshev class")


class TestTableBuildBits:
    """The plain-float panel build (interpolation and antiderivative)
    equals ``Chebyshev.interpolate(...).integ()`` bit for bit."""

    def test_nodes_and_vandermonde_are_numpys(self):
        # built without numpy.polynomial, so pin them to it: the sign of a zero counts
        hexed = lambda xs: [x.hex() for x in xs]
        nodes, got = quadrature._chebyshev_nodes_and_vander_t()  # built on first use, then kept
        assert nodes is quadrature._NODES and got is quadrature._VANDER_T
        assert hexed(nodes) == hexed(chebpts1(25).tolist())
        want = chebvander(nodes, 24).T
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert hexed(got.ravel().tolist()) == hexed(want.ravel().tolist())

    @pytest.mark.parametrize("case", TABLE_CASES, ids=["cos", "sqrt", "pole"])
    def test_matches_numpy_route(self, case):
        table = AntiderivativeTable(*case)
        assert _table_state(table) == _numpy_build(*case)
        assert len(table.pieces) == len(table.edges) - 1  # what the bench counts as panels
        for idx, (off, scl) in enumerate(_table_state(table)[4]):
            assert (off, scl) == tuple(map(float, _numpy_piece(table, idx).mapparms()))

    @pytest.mark.parametrize("case", TABLE_CASES, ids=["cos", "sqrt", "pole"])
    def test_build_does_not_call_numpy_interpolate(self, case, monkeypatch):
        from numpy.polynomial import chebyshev, polyutils

        want = _numpy_build(*case)
        monkeypatch.setattr(chebyshev.Chebyshev, "interpolate", _refuse)
        monkeypatch.setattr(chebyshev.Chebyshev, "integ", _refuse)
        monkeypatch.setattr(chebyshev.Chebyshev, "_int", _refuse)
        monkeypatch.setattr(chebyshev, "chebvander", _refuse)
        monkeypatch.setattr(chebyshev, "chebint", _refuse)
        monkeypatch.setattr(chebyshev, "chebval", _refuse)
        monkeypatch.setattr(polyutils, "mapparms", _refuse)
        assert _table_state(AntiderivativeTable(*case)) == want

    def test_antiderivative_matches_integ_on_random_panels(self):
        # the sign of a zero counts too, so compare the hex forms
        _antiderivative = AntiderivativeTable(*TABLE_CASES[0])._antiderivative
        rng = np.random.default_rng(20261018)
        for _ in range(2000):
            lo = float(rng.uniform(-1.0, 1.0))
            hi = lo + float(10.0 ** rng.uniform(-9.0, 0.3))
            coef = rng.standard_normal(25) * 10.0 ** rng.uniform(-16.0, 2.0, 25)
            coef[rng.random(25) < 0.1] = 0.0
            coef *= rng.choice([-1.0, 1.0])
            anti = Chebyshev(coef, domain=[lo, hi]).integ()
            want = (*map(float, anti.mapparms()), anti.coef.tolist())
            got = _antiderivative(coef.tolist(), lo, hi)
            hexed = lambda p: (p[0].hex(), p[1].hex(), [c.hex() for c in p[2]])
            assert hexed(got) == hexed(want), (lo, hi)


class TestTableLookupBits:
    """Plain-float Clenshaw lookups equal the numpy route bit for bit."""

    @pytest.mark.parametrize("case", TABLE_CASES, ids=["cos", "sqrt", "pole"])
    def test_matches_numpy_route(self, case):
        fn, a, b, tol = case
        table = AntiderivativeTable(fn, a, b, tol)
        rng = np.random.default_rng(20260418)
        width = b - a
        points = [float(x) for x in rng.uniform(a, b, 500)]
        points += list(table.edges)
        points += [a - 0.25 * width, a - 1e-9, b + 1e-9, b + 0.25 * width]
        for s in points:
            assert table(s) == _numpy_lookup(table, s), s
        # the stored left-edge values are the numpy ones too
        for idx, (base, _, _, left, *_) in enumerate(table.pieces):
            assert base == table.cumulative[idx]
            assert left == float(_numpy_piece(table, idx)(table.edges[idx]))

    def test_many_panels_case(self):
        assert len(AntiderivativeTable(*TABLE_CASES[1]).pieces) >= 8

    @pytest.mark.parametrize("case", TABLE_CASES, ids=["cos", "sqrt", "pole"])
    def test_lookup_does_not_call_numpy(self, case, monkeypatch):
        from numpy.polynomial import chebyshev

        fn, a, b, tol = case
        table = AntiderivativeTable(fn, a, b, tol)
        want = [_numpy_lookup(table, float(s)) for s in np.linspace(a, b, 100)]

        def refuse(*args, **kwargs):
            raise AssertionError("table lookup went through numpy")

        monkeypatch.setattr(chebyshev, "chebval", refuse)
        monkeypatch.setattr(chebyshev.Chebyshev, "__call__", refuse)
        got = [table(float(s)) for s in np.linspace(a, b, 100)]
        assert got == want


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
            q = distance_integral_at(class_id, lemniscate(0.5), r)
            s = routes.distance_integral_at(class_id, lemniscate(0.5), r, "series")
            assert abs(q - s) <= 1e-8


class TestMonotonicity:
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_lhs_nondecreasing(self, class_id):
        vals = [lhs_at(class_id, lemniscate(0.5), r) for r in np.linspace(0.05, 0.6, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLeftLimitMetadata:
    """The evaluator's own value at 0 is the extrapolated limit, which the
    nested rule substitutes below its cutoff."""

    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_left_limit_matches_extrapolation(self, class_id):
        from bohrcc.solver import lhs_integrand

        integrand = lhs_integrand(class_id, janowski(1, -1))
        limit = integrand(0.0)
        assert limit == 1.0
        # Richardson-style: f(h) -> f(0) as h -> 0
        vals = [integrand(h) for h in (1e-3, 1e-5, 1e-7)]
        assert abs(vals[-1] - limit) <= 1e-6
        assert abs(vals[-1] - limit) <= abs(vals[0] - limit)
