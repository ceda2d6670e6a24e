import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from routes import (
    _series_distance_curve,
    distance_integral_at,
    reflect,
    sc_sakaguchi_paper_root,
    series_lhs_curve,
    series_transform,
)
from scipy.special import lambertw
from _bench_inputs import BENCH_INPUTS

from bohrcc import catalog, extremal, solver
from bohrcc import power_series as ps
from bohrcc.catalog import (
    FAMILIES,
    PhiSpec,
    expblend,
    janowski,
    lemniscate,
    majorant_phi_evaluator,
    phi_series,
    sakaguchi,
    strongly,
    wang,
)
from bohrcc.errors import InconsistencyError, NoRootError, ParameterError
from bohrcc.extremal import build_extremal, extremal_kernels, h_evaluator
from bohrcc.reference import TABLE1, TABLE4
from bohrcc.solver import (
    ClassId,
    lhs_at,
    lhs_integrand,
    sharpness_witness,
    solve_corollary_closed_form,
    solve_radius,
    target_constant,
    threshold_scan,
)
from bohrcc.verifier import _members

CANONICAL = [
    janowski(1.0, -1.0),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.03),
    strongly(0.5),
    wang(0.5, 1.0),
]


class TestAnchors:
    def test_ks_base_case(self):
        want = math.log(2.0) / (2.0 + math.log(2.0))
        assert solve_radius(ClassId.KS, sakaguchi(0.0)).r_f == pytest.approx(want, abs=1e-9)
        closed = solve_corollary_closed_form("ks-sakaguchi", {"gamma": 0.0})
        assert closed.r_f == pytest.approx(want, abs=1e-9)

    def test_sc_full_range_janowski(self):
        want = 3.0 - 2.0 * math.sqrt(2.0)
        res = solve_radius(ClassId.SC, janowski(1, -1))
        assert res.r_f == pytest.approx(want, abs=1e-10)
        assert res.sharp and res.capped == res.r_f

    def test_sc_lemniscate_table_value(self):
        assert solve_radius(ClassId.SC, lemniscate(0.5)).r_f == pytest.approx(
            0.3040402, abs=1e-6
        )

    def test_sc_capped_case(self):
        res = solve_radius(ClassId.SC, janowski(0.5, -0.3))
        assert res.r_f == pytest.approx(0.364714, abs=1e-4)
        assert res.capped == pytest.approx(1.0 / 3.0)
        assert not res.sharp
        assert "1/3" in res.notes

    def test_cc_full_range_janowski_is_exactly_one_third(self):
        # T(1/3) = 1/2 = -k(-1) for the widest Janowski spec
        res = solve_radius(ClassId.CC, janowski(1, -1))
        assert res.r_f == pytest.approx(1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_residual_and_bracketing(self, class_id, spec):
        res = solve_radius(class_id, spec)
        assert res.residual <= 1e-8
        assert res.bracket[0] < res.r_f < res.bracket[1] or res.bracket[0] <= res.r_f <= res.bracket[1]
        assert res.capped <= 1.0 / 3.0 + 1e-15
        target = target_constant(class_id, spec)
        assert lhs_at(class_id, spec, res.r_f - 1e-4) < target < lhs_at(class_id, spec, res.r_f + 1e-4)

    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    def test_problem_invariant(self, spec):
        for class_id in ClassId:
            target = target_constant(class_id, spec)
            assert target > 0.0
            assert lhs_at(class_id, spec, 1e-9) < target


class TestSharpness:
    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    def test_sc_sharp_for_canonical(self, spec):
        res = solve_radius(ClassId.SC, spec)
        assert res.sharp  # every canonical spec has r_f < 1/3 under Sc

    @pytest.mark.parametrize("class_id", [ClassId.KS, ClassId.CC, ClassId.CS])
    def test_other_classes_never_sharp(self, class_id):
        res = solve_radius(class_id, lemniscate(0.5))
        assert not res.sharp
        assert "lower bound" in res.notes

    def test_the_root_at_one_third_has_one_verdict(self):
        # sakaguchi(1/2) and janowski(0, -1) are both 1/(1 - z), so h(r) =
        # r/(1 - r) meets -h(-1) = 1/2 at r = 1/3 exactly; h(1/3) + h(-1)
        # reads -1.1e-16, and every route reads the root as past 1/3
        results = [
            solve_radius(ClassId.SC, sakaguchi(0.5)),
            solve_radius(ClassId.SC, janowski(0.0, -1.0)),
            solve_corollary_closed_form("sc-sakaguchi", {"gamma": 0.5}),
            solve_corollary_closed_form("sc-janowski", {"A": 0.0, "B": -1.0}),
        ]
        scan = threshold_scan("sc-sakaguchi", [0.45, 0.5])
        assert [res.sharp for res in results] + [scan.rows[1].in_sharp_window] == [False] * 5
        assert {res.notes for res in results} == {
            "root exceeds 1/3; the coefficient inequality holds for r <= 1/3 (capped radius governs)"
        }
        # r_f lands on either side of 1/3: the general solve's below it, the corollaries' above
        assert all(res.bracket[0] <= 1 / 3 <= res.bracket[1] for res in results)

    def test_witness_attains_bound(self):
        spec = sakaguchi(0.0)
        res = solve_radius(ClassId.SC, spec)
        report = sharpness_witness(ClassId.SC, spec, res)
        assert report.ok
        assert report.value_at_radius == pytest.approx(0.25, abs=1e-7)
        assert report.bound == pytest.approx(0.25, abs=1e-12)
        assert report.delta == 0.01
        assert report.value_beyond.hex() == h_evaluator(spec)(res.r_f + 0.01).hex()
        assert report.exceeds_beyond is True
        assert not report._replace(exceeds_beyond=False).ok

    def test_witness_requires_sharp_sc(self):
        res = solve_radius(ClassId.KS, sakaguchi(0.0))
        with pytest.raises(ParameterError):
            sharpness_witness(ClassId.KS, sakaguchi(0.0), res)

    def test_witness_that_misses_the_bound_is_an_inconsistency(self):
        # a "sharp" result whose radius is not the root of h(r) = -h(-1)
        spec = lemniscate(0.5)
        wrong = solver.RadiusResult(0.2, 0.2, True, 0.0, (0.2, 0.2), "")
        with pytest.raises(InconsistencyError, match="misses the bound .* at r_f=0.2; solver"):
            sharpness_witness(ClassId.SC, spec, wrong)


class TestSeriesVsQuadratureLhs:
    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    def test_sc_lhs_equals_growth_function_for_positive(self, spec):
        # positive coefficients collapse the Sc lhs to the extremal growth h(r)
        h = h_evaluator(spec)
        for r in (0.1, 0.25, 1 / 3):
            assert lhs_at(ClassId.SC, spec, r) == pytest.approx(h(r), abs=1e-9)

    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_nonnegative_kernel_majorant_is_the_kernel(self, monkeypatch, class_id, spec):
        # with nonnegative coefficients M_K = K, read from the spec: the
        # integrand builds no series, and where the order-64 series tail is
        # negligible it agrees with the series majorant
        series = ps.evaluator(ps.majorant(solver.kernel_series(class_id, spec, 64)))
        m_phi = majorant_phi_evaluator(spec)

        def refuse(*args):
            raise AssertionError("a nonnegative spec's lhs integrand built a kernel series")

        monkeypatch.setattr(solver, "kernel_series", refuse)
        integrand = solver.lhs_integrand(class_id, spec, 64)
        assert integrand(0.0) == 1.0
        for t in (0.1, 1 / 3, 0.5):
            assert integrand(t) == pytest.approx(series(t) * m_phi(t), rel=1e-14, abs=0.0)


class TestRotationInvariance:
    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_sign_flip_leaves_radius(self, monkeypatch, class_id, spec):
        # phi(-z), and the k' and K' built from it, differ from phi, k' and K'
        # only in coefficient signs; a solve fed those series must give the
        # pinned curve and bits, which holds while the lhs reads them only
        # through majorants (tests/test_extremal.py::TestReflection checks
        # the series identity itself)
        plain = solver._series_lhs_curve(class_id, spec, 64)

        def flipped_phi(s, order):
            return reflect(phi_series(s, order))

        def flipped_bundle(s, order):
            k_prime, K_prime = extremal_kernels(flipped_phi(s, order))
            return build_extremal(s, order)._replace(k_prime=k_prime, K_prime=K_prime)

        monkeypatch.setattr(solver, "phi_series", flipped_phi)
        monkeypatch.setattr(solver, "build_extremal", flipped_bundle)
        assert np.array_equal(solver._series_lhs_curve(class_id, spec, 64).coeffs, plain.coeffs)
        res = _cold_solve(class_id, spec)
        assert (res.r_f, res.residual, res.bracket) == PINNED[(class_id.value, spec.label())]


#: the series oracle ``routes.distance_integral_at(class, spec, r, "series")``
#: at r = 0.2, 0.5 and 0.9 and order 64, pinned to the last bit
DISTANCE_SERIES_PINS = {
    ("Ks", "janowski(A=1, B=-1)"): ("0x1.4d3b879d029acp-3", "0x1.2cf25fad8f1c4p-2", "0x1.617976cfeb247p-2"),
    ("Ks", "sakaguchi(gamma=0.25)"): ("0x1.5efdad999e8c4p-3", "0x1.586763d7b2426p-2", "0x1.c4b444f73ccf5p-2"),
    ("Ks", "lemniscate(s=0.5)"): ("0x1.6d700490b5624p-3", "0x1.71d4f5222a5f3p-2", "0x1.e96b806d4ffe1p-2"),
    ("Ks", "expblend(alpha=0.03)"): ("0x1.6fc5994fda4c4p-3", "0x1.7bfcb6bf8ac58p-2", "0x1.05c7a025f198fp-1"),
    ("Ks", "strongly(alpha=0.5)"): ("0x1.6e69b055a6dedp-3", "0x1.75a9bf273a5bbp-2", "0x1.eaf60bdc04794p-2"),
    ("Ks", "wang(alpha=0.5, beta=1)"): ("0x1.5bbf0f5d4ea55p-3", "0x1.47026be08ac5dp-2", "0x1.88345e215c22cp-2"),
    ("Ks", "janowski(A=0.5, B=0.3)"): ("0x1.8be609840833cp-3", "0x1.c16922badd4bap-2", "0x1.526a383cb5c97p-1"),
    ("Cs", "janowski(A=1, B=-1)"): ("0x1.727adc1cf253fp-3", "0x1.8ec921c784249p-2", "0x1.29280e7502d1cp-1"),
    ("Cs", "sakaguchi(gamma=0.25)"): ("0x1.7c30e5225917dp-3", "0x1.a9fe19a547f87p-2", "0x1.4deab588c0339p-1"),
    ("Cs", "lemniscate(s=0.5)"): ("0x1.84c4abc63b538p-3", "0x1.be7181864d993p-2", "0x1.64b887f88573ap-1"),
    ("Cs", "expblend(alpha=0.03)"): ("0x1.85cc57576820cp-3", "0x1.c3247f680d990p-2", "0x1.6e2efdebd560fp-1"),
    ("Cs", "strongly(alpha=0.5)"): ("0x1.8520e5bc2a420p-3", "0x1.c0535a9c02d22p-2", "0x1.6733bb53d00f6p-1"),
    ("Cs", "wang(alpha=0.5, beta=1)"): ("0x1.7b08c0fd4c4ffp-3", "0x1.a2e79a95b4426p-2", "0x1.3ef6015a80a96p-1"),
    ("Cs", "janowski(A=0.5, B=0.3)"): ("0x1.9536809511dc8p-3", "0x1.f0ebd6c3e6ee5p-2", "0x1.b15ea9d3360b5p-1"),
}

_SHAPE_SPECS = CANONICAL + [janowski(0.5, 0.3)]


def _hexes(series: ps.TruncatedSeries) -> list[str]:
    return [float(c).hex() for c in series.coeffs]


def _old_distance_curve(class_id: ClassId, spec: PhiSpec, order: int) -> ps.TruncatedSeries:
    """The distance curve with 1/(1+z^2) as its own geometric series (Ks)
    and K'(iz) = (k'(-z^2))^{1/2} as the K' of phi(-z) (Cs), the kernel
    multiplied first as in every class curve."""
    phi_neg = reflect(phi_series(spec, order))
    if class_id is ClassId.KS:
        geometric = np.zeros(order)
        geometric[0::2] = (-1.0) ** np.arange(geometric[0::2].size)
        rotated = ps.TruncatedSeries(geometric)
    else:
        rotated = extremal_kernels(phi_neg)[1]
    return series_transform(class_id, ps.mul(rotated, phi_neg))


class TestClassShape:
    """Each class is a kernel K and a transform T: ``kernel_series`` and
    ``ClassId.nested``, which the curves, the integrands and the members read."""

    def test_nested_classes(self):
        assert [c for c in ClassId if c.nested] == [ClassId.CC, ClassId.CS]

    @pytest.mark.parametrize("order", [8, 9, 64, 65, 256])
    @pytest.mark.parametrize("spec", _SHAPE_SPECS, ids=lambda s: s.label())
    def test_kernels(self, spec, order):
        es = build_extremal(spec, order)
        geometric = np.zeros(order)
        geometric[0::2] = 1.0  # 1/(1-z^2)
        kernels = [ps.TruncatedSeries(geometric), es.k_prime, es.k_prime, es.K_prime]
        for class_id, want in zip(ClassId, kernels):
            assert _hexes(solver.kernel_series(class_id, spec, order)) == _hexes(want)

    @pytest.mark.parametrize("order", [8, 64, 256])
    @pytest.mark.parametrize("spec", _SHAPE_SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_lhs_curve_is_the_series_oracle(self, class_id, spec, order):
        # ClassId.transform makes the divisions of the series route's
        # integrations and division by z, so every bit, zero signs included, agrees
        got = solver._series_lhs_curve(class_id, spec, order).coeffs
        assert got.tobytes() == series_lhs_curve(class_id, spec, order).coeffs.tobytes()

    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_transform_acts_on_the_last_axis(self, class_id):
        c = np.random.default_rng(5).standard_normal((2, 3, 9))
        got = class_id.transform(c)
        assert got.shape == (2, 3, 10)
        for row, want in zip(got.reshape(6, 10), c.reshape(6, 9)):
            assert row.tobytes() == series_transform(class_id, ps.TruncatedSeries(want)).coeffs.tobytes()
        assert class_id.transform(np.ones(1)).tolist() == [0.0, 1.0]  # T(1) = z for every class

    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_kernel_order_must_be_positive(self, class_id):
        for order in (0, -1):
            with pytest.raises(ParameterError, match="^order must be positive$"):
                solver.kernel_series(class_id, lemniscate(0.5), order)

    @pytest.mark.parametrize("spec", _SHAPE_SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", [ClassId.KS, ClassId.CS], ids=lambda c: c.value)
    def test_rotated_kernel_gives_the_distance_curve(self, class_id, spec):
        # K(iz) carries (-1)^n on z^{2n}; the old constructions differ from it
        # in the signs of zero coefficients only, which np.array_equal ignores
        for order in (8, 9, 64, 65, 256):
            new = _series_distance_curve(class_id, spec, order)
            assert np.array_equal(new.coeffs, _old_distance_curve(class_id, spec, order).coeffs)
        at = [
            distance_integral_at(class_id, spec, r, "series").hex() for r in (0.2, 0.5, 0.9)
        ]
        assert tuple(at) == DISTANCE_SERIES_PINS[(class_id.value, spec.label())]

    @pytest.mark.parametrize("class_id", [ClassId.SC, ClassId.CC], ids=lambda c: c.value)
    def test_boundary_value_classes_have_no_distance_integral(self, class_id):
        spec = lemniscate(0.5)
        message = f"{class_id.value} has a boundary-value target, not an integral"
        with pytest.raises(ParameterError, match=message):
            solver.distance_integrand(class_id, spec)
        with pytest.raises(ParameterError, match=message):
            solver.distance_integral_at(class_id, spec, 0.5)
        with pytest.raises(ParameterError, match=message):
            _series_distance_curve(class_id, spec, 64)

    def test_unknown_method(self):
        with pytest.raises(ParameterError, match="^unknown method 'simpson'$"):
            lhs_at(ClassId.KS, lemniscate(0.5), 0.5, "simpson")

    def test_unknown_class(self):
        assert ClassId.parse("cS") is ClassId.CS
        with pytest.raises(ParameterError, match="^unknown class 'Kc'; expected one of Ks, Sc, Cc, Cs$"):
            ClassId.parse("Kc")

    @pytest.mark.parametrize(
        "class_id, field, value, shown",
        [(ClassId.SC, "h_at_minus_one", 0.25, "-0.25"), (ClassId.CC, "k_at_minus_one", 0.0, "-0.0")],
        ids=["Sc", "Cc"],
    )
    def test_target_must_be_positive(self, monkeypatch, class_id, field, value, shown):
        def wrong_bundle(spec, order):
            return build_extremal(spec, order)._replace(**{field: value})

        monkeypatch.setattr(solver, "build_extremal", wrong_bundle)
        with pytest.raises(InconsistencyError, match=f"^target must be positive, got {shown}$"):
            solver._target_constant.__wrapped__(class_id, lemniscate(0.5), 64, 1e-10)


class TestRadiusResultInvariants:
    @pytest.mark.parametrize("r_f", [0.0, 1.0, -0.5, math.nan])
    def test_radius_inside_the_disk(self, r_f):
        with pytest.raises(InconsistencyError, match=r"radius .* outside \(0, 1\)"):
            solver.RadiusResult(r_f, 1 / 3, False, 0.0, (r_f, r_f), "")

    def test_residual_at_most_1e_8(self):
        assert solver.RadiusResult(0.5, 1 / 3, False, 1e-8, (0.5, 0.5), "").residual == 1e-8
        with pytest.raises(InconsistencyError, match="radius residual 2e-08 exceeds 1e-8"):
            solver.RadiusResult(0.5, 1 / 3, False, 2e-8, (0.5, 0.5), "")


#: (equation, parameters, repr of r_f) of corollary solves, pinned to the last bit
CLOSED_FORM_BITS = [
    ("ks-sakaguchi", {"gamma": 0.0}, "0.2573744151691244"),
    ("ks-sakaguchi", {"gamma": 0.2}, "0.3156419010388163"),
    ("ks-wang", {"alpha": 0.5, "beta": 1.0}, "0.29792331016369644"),
    ("ks-wang", {"alpha": 0.25, "beta": 0.5}, "0.4657301226557138"),
    ("sc-lemniscate", {"s": 0.5}, "0.30404022155153143"),
    ("sc-lemniscate", {"s": 0.6}, "0.2605657770068319"),
    ("sc-sakaguchi", {"gamma": 0.25}, "0.2360679774997152"),
    ("sc-sakaguchi", {"gamma": 0.6}, "0.38784910553249574"),
    ("sc-expblend", {"alpha": 0.03}, "0.32699217400522684"),
    ("sc-expblend", {"alpha": 0.3}, "0.4144530264052264"),
    ("sc-janowski-b0", {"A": 0.9}, "0.308109859347951"),
    ("sc-janowski-b0", {"A": 0.5}, "0.4776700622628596"),
    ("sc-janowski", {"A": 1.0, "B": -1.0}, "0.17157287525378706"),
    ("sc-janowski", {"A": 1.0, "B": -0.5}, "0.2117850860499857"),
    # B = 0 has nonnegative coefficients: the sc-janowski-b0 bits above
    ("sc-janowski", {"A": 0.9, "B": 0.0}, "0.308109859347951"),
    ("sc-janowski", {"A": 0.5, "B": 0.0}, "0.4776700622628596"),
]


class TestClosedForms:
    def test_sc_sakaguchi_base_case_is_algebraic(self):
        # r + 2 sqrt(r) - 1 = 0 -> r = 3 - 2 sqrt(2)
        res = solve_corollary_closed_form("sc-sakaguchi", {"gamma": 0.0})
        assert res.r_f == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.6, 0.9, 0.99])
    def test_sc_sakaguchi_is_the_papers_form(self, gamma):
        # the row solves h(r) = -h(-1); the paper writes it r + 2 r^e = 1
        res = solve_corollary_closed_form("sc-sakaguchi", {"gamma": gamma})
        assert res.r_f == pytest.approx(sc_sakaguchi_paper_root(gamma), abs=1e-12)

    def test_sc_lemniscate_row(self):
        res = solve_corollary_closed_form("sc-lemniscate", {"s": 0.6})
        assert res.r_f == pytest.approx(0.2605657, abs=1e-6)

    def test_sc_janowski_row(self):
        res = solve_corollary_closed_form("sc-janowski", {"A": 0.5, "B": -0.5})
        assert res.r_f == pytest.approx(0.31534, abs=1e-4)

    def test_janowski_b0_window(self):
        a = 0.9  # above (3/4) ln 3 ~ 0.8239: root below 1/3
        res = solve_corollary_closed_form("sc-janowski-b0", {"A": a})
        assert res.sharp and res.r_f < 1 / 3
        res2 = solve_corollary_closed_form("sc-janowski-b0", {"A": 0.5})
        assert not res2.sharp and res2.r_f > 1 / 3
        assert "capped" in res2.notes

    @pytest.mark.parametrize(
        "eid,params,class_id,spec",
        [
            ("ks-sakaguchi", {"gamma": 0.0}, ClassId.KS, sakaguchi(0.0)),
            ("ks-sakaguchi", {"gamma": 0.2}, ClassId.KS, sakaguchi(0.2)),
            ("ks-wang", {"alpha": 0.5, "beta": 1.0}, ClassId.KS, wang(0.5, 1.0)),
            ("sc-lemniscate", {"s": 0.5}, ClassId.SC, lemniscate(0.5)),
            ("sc-sakaguchi", {"gamma": 0.25}, ClassId.SC, sakaguchi(0.25)),
            ("sc-janowski", {"A": 1.0, "B": -1.0}, ClassId.SC, janowski(1.0, -1.0)),
            ("sc-janowski-b0", {"A": 1.0}, ClassId.SC, janowski(1.0, 0.0)),
            # roots above 1/3
            ("sc-janowski-b0", {"A": 0.5}, ClassId.SC, janowski(0.5, 0.0)),
            ("ks-sakaguchi", {"gamma": 0.3}, ClassId.KS, sakaguchi(0.3)),
            # no closed form: the extremal growth h(r) = -h(-1)
            ("sc-expblend", {"alpha": 0.03}, ClassId.SC, expblend(0.03)),
        ],
    )
    def test_closed_form_agrees_with_general_solver(self, eid, params, class_id, spec):
        closed = solve_corollary_closed_form(eid, params)
        general = solve_radius(class_id, spec)
        assert abs(closed.r_f - general.r_f) <= 1e-7
        assert (closed.sharp, closed.notes) == (general.sharp, general.notes)

    @pytest.mark.parametrize("eid,params,r_f", CLOSED_FORM_BITS)
    def test_closed_form_bits(self, eid, params, r_f):
        assert repr(solve_corollary_closed_form(eid, params).r_f) == r_f

    @pytest.mark.parametrize("a", [0.01, 0.001])
    def test_root_past_0_9(self, a):
        # r e^{Ar} = e^{-A} puts the root past 0.9
        want = lambertw(a * math.exp(-a)).real / a
        assert solve_corollary_closed_form("sc-janowski-b0", {"A": a}).r_f == pytest.approx(want, abs=1e-12)

    def test_no_root_below_one(self):
        # the root is about 1 - 2A: bisection of (0, 1) to width 1e-12 finds
        # it at A = 1e-12, and at A = 1e-14 the lhs stays below the rhs at
        # every midpoint, the last one 1 - 2^-40
        a = 1e-12
        want = lambertw(a * math.exp(-a)).real / a
        assert solve_corollary_closed_form("sc-janowski-b0", {"A": a}).r_f == pytest.approx(want, abs=1e-12)
        with pytest.raises(
            NoRootError, match=r"^sc-janowski-b0 equation shows no root in \(0, 1 - 1e-12\]$"
        ):
            solve_corollary_closed_form("sc-janowski-b0", {"A": 1e-14})

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            solve_corollary_closed_form("no-such-equation", {})
        with pytest.raises(ParameterError):
            solve_corollary_closed_form("sc-lemniscate", {})
        # B > 0: phi has mixed-sign coefficients, so h(r) is not the class lhs
        for b in (0.5, 0.05):
            with pytest.raises(ParameterError):
                solve_corollary_closed_form("sc-janowski", {"A": 0.9, "B": b})
        with pytest.raises(ParameterError):
            solve_corollary_closed_form("sc-lemniscate", {"s": 0.9})

    @pytest.mark.parametrize(
        "eid, params, extra",
        [
            # B is a family parameter that sc-janowski-b0 fixes
            ("sc-janowski-b0", {"A": 0.9, "B": 0.5}, "['B']"),
            ("sc-lemniscate", {"s": 0.5, "gamma": 7}, "['gamma']"),
            ("ks-wang", {"alpha": 0.5, "A": 1.0, "beta": 1.0, "s": 0.5}, "['A', 's']"),
        ],
    )
    def test_extra_parameters_are_named(self, eid, params, extra):
        names = solver._free_names(eid)
        with pytest.raises(ParameterError, match=re.escape(f"{eid} takes parameters {names}, not {extra}")):
            solve_corollary_closed_form(eid, params)

    @pytest.mark.parametrize(
        "eid, names",
        [
            ("ks-sakaguchi", "('gamma',)"),
            ("ks-wang", "('alpha', 'beta')"),
            ("sc-lemniscate", "('s',)"),
            ("sc-sakaguchi", "('gamma',)"),
            ("sc-expblend", "('alpha',)"),
            ("sc-janowski-b0", "('A',)"),
            ("sc-janowski", "('A', 'B')"),
        ],
    )
    def test_missing_parameters_are_named(self, eid, names):
        # the free names are the family's minus the fixed ones, printed as a tuple
        with pytest.raises(ParameterError, match=re.escape(f"{eid} needs parameters {names}, missing")):
            solve_corollary_closed_form(eid, {"B": 0.0})


class TestThresholdScan:
    def test_lemniscate_threshold(self):
        scan = threshold_scan("sc-lemniscate", np.arange(0.40, 0.501, 1e-3))
        assert scan.bracket is not None
        assert 0.4449 < scan.threshold < 0.4450
        # windows flip exactly once along the grid
        flags = [row.in_sharp_window for row in scan.rows]
        assert flags.count(True) > 0 and flags.count(False) > 0
        assert flags == sorted(flags)  # False..False True..True

    def test_expblend_threshold(self):
        scan = threshold_scan("sc-expblend", np.arange(0.0, 0.081, 1e-3))
        assert 0.0528 < scan.threshold < 0.0529
        flags = [row.in_sharp_window for row in scan.rows]
        assert flags == sorted(flags, reverse=True)  # True..True False..False

    def test_ks_sakaguchi_threshold(self):
        scan = threshold_scan("ks-sakaguchi", np.arange(0.25, 0.271, 1e-3))
        assert 0.2590 < scan.threshold < 0.2591

    @pytest.mark.parametrize(
        "eid,grid,threshold",
        [
            ("sc-lemniscate", np.arange(0.40, 0.501, 1e-3), "0.4449809489250184"),
            ("sc-expblend", np.arange(0.0, 0.081, 1e-3), "0.0528421483039856"),
            ("ks-sakaguchi", np.arange(0.25, 0.271, 1e-3), "0.2590564036369324"),
            ("sc-janowski-b0", np.arange(0.7, 0.951, 5e-3), "0.8239592167735101"),
            ("sc-sakaguchi", np.arange(0.45, 0.551, 1e-3), "0.4999999995231629"),
        ],
        ids=["lemniscate", "expblend", "ks-sakaguchi", "janowski-b0", "sc-sakaguchi"],
    )
    def test_threshold_bits(self, eid, grid, threshold):
        assert repr(threshold_scan(eid, grid).threshold) == threshold

    def test_a_grid_past_the_crossing_has_no_bracket(self):
        # gamma = 1/2 puts the root at 1/3, just below this grid: no row is in the window
        scan = threshold_scan("sc-sakaguchi", [0.5000000000000001, 0.5100000000000001])
        assert scan.bracket is None and scan.threshold is None
        assert not any(row.in_sharp_window for row in scan.rows)

    def test_a_root_at_one_third_reads_outside_the_window(self):
        # sakaguchi(1/2) has the root 1/3 exactly, but h(1/3) + h(-1) reads
        # -1.1e-16, so the closed window's test lhs(1/3) >= rhs fails there
        scan = threshold_scan("sc-sakaguchi", [0.499, 0.5])
        assert scan.rows[1].r_f == pytest.approx(1 / 3, abs=1e-12)
        assert [row.in_sharp_window for row in scan.rows] == [True, False]
        assert scan.bracket == (0.499, 0.5) and 0.5 - 1e-9 < scan.threshold < 0.5

    def test_no_crossing_in_grid(self):
        scan = threshold_scan("sc-lemniscate", [0.5, 0.6, 0.7])
        assert scan.bracket is None and scan.threshold is None
        assert all(row.in_sharp_window for row in scan.rows)

    def test_rows_match_closed_form(self):
        scan = threshold_scan("sc-lemniscate", [0.5, 0.6])
        assert scan.rows[0].r_f == pytest.approx(0.3040402, abs=1e-6)
        assert scan.rows[1].r_f == pytest.approx(0.2605657, abs=1e-6)

    def test_expblend_rows_agree_with_general_solver(self):
        scan = threshold_scan("sc-expblend", [0.02, 0.03])
        for row, a in zip(scan.rows, (0.02, 0.03)):
            assert row.r_f == pytest.approx(
                solve_radius(ClassId.SC, expblend(a)).r_f, abs=1e-7
            )

    def test_bad_grid(self):
        with pytest.raises(ParameterError):
            threshold_scan("sc-lemniscate", [0.5])
        with pytest.raises(ParameterError):
            threshold_scan("sc-lemniscate", [0.5, 0.4])
        with pytest.raises(ParameterError):
            threshold_scan("unknown", [0.1, 0.2])

    @pytest.mark.parametrize("equation", ["ks-wang", "sc-janowski"])
    def test_two_parameter_equation_is_rejected(self, equation):
        assert equation not in solver.SCAN_EQUATIONS
        with pytest.raises(ParameterError, match="one-parameter"):
            threshold_scan(equation, [0.1, 0.2])

    @staticmethod
    def _h_builds(monkeypatch, run) -> int:
        """How many times ``run()`` builds the extremal h in the solver."""
        builds = []
        build = solver.h_evaluator
        monkeypatch.setattr(solver, "h_evaluator", lambda spec: builds.append(spec) or build(spec))
        run()
        return len(builds)

    @pytest.mark.parametrize("n", [2, 11, 101])
    def test_a_row_builds_its_equation_once(self, monkeypatch, n):
        # every row of this grid sits in the window, so no probe refines a crossing;
        # a row reads its r_f, its flag and its sharp verdict from one equation
        grid = np.linspace(0.5, 0.7, n)
        assert self._h_builds(monkeypatch, lambda: threshold_scan("sc-lemniscate", grid)) == n

    def test_a_refinement_probe_builds_one_equation(self, monkeypatch):
        grid = np.linspace(0.1, 0.7, 101)
        scan = threshold_scan("sc-lemniscate", grid)
        a, b = scan.bracket
        probes = math.ceil(math.log2((b - a) / 1e-9))  # halvings of the crossing's cell to 1e-9
        assert probes == 23
        assert self._h_builds(monkeypatch, lambda: threshold_scan("sc-lemniscate", grid)) == 101 + probes

    def test_a_table_row_builds_one_equation(self, monkeypatch):
        rows = [("sc-lemniscate", {"s": s}) for s, _ in TABLE1]
        rows += [("sc-janowski", {"A": a, "B": b}) for a, b, _ in TABLE4]
        for eid, params in rows:
            assert self._h_builds(monkeypatch, lambda: solve_corollary_closed_form(eid, params)) == 1

    def test_scan_equations_are_the_one_parameter_rows(self):
        one = [
            e
            for e, (_, family, _, fixed) in solver.CLOSED_FORM_EQUATIONS.items()
            if len(FAMILIES[family].names) - len(fixed) == 1
        ]
        assert sorted(one) == list(solver.SCAN_EQUATIONS)
        assert "sc-expblend" in solver.SCAN_EQUATIONS


#: (r_f, residual, bracket) of each canonical solve, pinned to the last bit:
#: the golden `radius` output prints 9 significant digits of a ~1e-12
#: residual, which only hold while r_f is the same float.
PINNED = {
    ("Ks", "janowski(A=1, B=-1)"): (0.25737441517040144, 3.0204172496439696e-12, (0.25737441516667614, 0.25737441517412674)),
    ("Sc", "janowski(A=1, B=-1)"): (0.17157287525013099, 7.580991390199188e-12, (0.1715728752464057, 0.17157287525385628)),
    ("Cc", "janowski(A=1, B=-1)"): (0.33333333333209175, 2.792932551898275e-12, (0.33333333332836645, 0.33333333333581705)),
    ("Cs", "janowski(A=1, B=-1)"): (0.4603585141859952, 4.247713292215849e-12, (0.4603585141822699, 0.4603585141897205)),
    ("Ks", "sakaguchi(gamma=0.25)"): (0.33059895990416427, 1.8941515023129796e-12, (0.33059895990043897, 0.33059895990788957)),
    ("Sc", "sakaguchi(gamma=0.25)"): (0.23606797749921704, 1.2551626404899707e-12, (0.23606797749549174, 0.2360679775029423)),
    ("Cc", "sakaguchi(gamma=0.25)"): (0.4017610510401431, 2.127409359786725e-12, (0.4017610510364178, 0.4017610510438684)),
    ("Cs", "sakaguchi(gamma=0.25)"): (0.5334441121406854, 5.712208483998893e-12, (0.5334441121369602, 0.5334441121444108)),
    ("Ks", "lemniscate(s=0.5)"): (0.38566619777306943, 5.668465696828662e-12, (0.3856661977693442, 0.38566619777679473)),
    ("Sc", "lemniscate(s=0.5)"): (0.3040402215532961, 2.8602120671905595e-12, (0.3040402215495708, 0.3040402215570214)),
    ("Cc", "lemniscate(s=0.5)"): (0.4979361398704354, 5.294764626739834e-12, (0.4979361398667101, 0.49793613987416063)),
    ("Cs", "lemniscate(s=0.5)"): (0.6263652073852723, 4.980904577678302e-12, (0.6263652073815471, 0.6263652073889976)),
    ("Ks", "expblend(alpha=0.03)"): (0.4065969111211601, 1.9910739723627557e-12, (0.4065969111174348, 0.4065969111248854)),
    ("Sc", "expblend(alpha=0.03)"): (0.3269921740032735, 3.760436406707868e-12, (0.3269921739995482, 0.32699217400699876)),
    ("Cc", "expblend(alpha=0.03)"): (0.5095123850964014, 6.45394848675096e-12, (0.509512385092676, 0.5095123851001266)),
    ("Cs", "expblend(alpha=0.03)"): (0.6383017416559165, 1.8797186029928525e-12, (0.6383017416521912, 0.6383017416596418)),
    ("Ks", "strongly(alpha=0.5)"): (0.3774595882706347, 4.7628567756419216e-14, (0.3774595882669094, 0.37745958827436)),
    ("Sc", "strongly(alpha=0.5)"): (0.2996327950470151, 2.3552826355910383e-12, (0.2996327950432899, 0.2996327950507404)),
    ("Cc", "strongly(alpha=0.5)"): (0.4938682491369549, 4.832134692378531e-12, (0.4938682491332296, 0.49386824914068017)),
    ("Cs", "strongly(alpha=0.5)"): (0.6190872504375879, 4.968914169012351e-12, (0.6190872504338626, 0.6190872504413132)),
    ("Ks", "wang(alpha=0.5, beta=1)"): (0.2979233101643624, 1.0996759058912176e-12, (0.2979233101606371, 0.2979233101680877)),
    ("Sc", "wang(alpha=0.5, beta=1)"): (0.2117850860469045, 5.936640068426868e-12, (0.2117850860431792, 0.21178508605062976)),
    ("Cc", "wang(alpha=0.5, beta=1)"): (0.3964325485266748, 2.368993889945159e-12, (0.3964325485229495, 0.3964325485304001)),
    ("Cs", "wang(alpha=0.5, beta=1)"): (0.5261763953678313, 2.660982545421575e-12, (0.5261763953641061, 0.5261763953715566)),
}


#: (r_f, residual, bracket) of Sc solves whose hinted-cell certificate fails,
#: pinned to the last bit
CERTIFICATE_FALLBACK = {
    sakaguchi(0.9962127258534218): (0.9689437101595111, 9.28812582401406e-13, (0.9689437101557858, 0.9689437101632363)),
    sakaguchi(0.9985018509047698): (0.9853722907491038, 3.823941163716427e-12, (0.9853722907453786, 0.9853722907528292)),
    janowski(-0.9876463424314437, -0.9910998738633257): (0.9847271368615336, 6.245004513516506e-13, (0.9847271368578082, 0.9847271368652588)),
}


def _cold_solve(class_id, spec, order=64, tol=1e-10):
    """solve_radius with the solve and target caches bypassed."""
    solver._target_constant.cache_clear()
    return solver._solve_cached.__wrapped__(class_id, spec, order, tol)


class TestRootSearch:
    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_canonical_bits(self, class_id, spec):
        res = solve_radius(class_id, spec)
        assert (res.r_f, res.residual, res.bracket) == PINNED[(class_id.value, spec.label())]

    @pytest.mark.parametrize(
        "class_id,spec,r_f",
        [
            (ClassId.CS, strongly(0.05), 0.9374887146167465),
            (ClassId.CC, strongly(0.03), 0.9395030524097387),
        ],
        ids=["Cs-strongly(0.05)", "Cc-strongly(0.03)"],
    )
    def test_large_root_where_series_misleads(self, monkeypatch, class_id, spec, r_f):
        # at r ~ 0.94 the order-64 series truncation tail exceeds the gap to
        # the target, so the tail hint in the margin hands those steps to
        # quadrature; the radius must be the quadrature one, found without
        # falling back to a quadrature-only bisection (about 35 calls)
        assert solve_radius(class_id, spec).r_f == r_f
        assert self._quadrature_calls(monkeypatch, class_id, spec)[0] <= 20

    @pytest.mark.parametrize(
        "key,factor",
        [
            pytest.param(("Sc", "lemniscate(s=0.5)"), 1.01, id="Sc"),
            pytest.param(("Cs", "strongly(alpha=0.5)"), 1.01, id="Cs"),
            pytest.param(("Sc", "lemniscate(s=0.5)"), 0.99, id="Sc-deflated"),
            pytest.param(("Cs", "strongly(alpha=0.5)"), 0.99, id="Cs-deflated"),
        ]
        + [
            pytest.param(key, factor, id=f"{key[0]}-{key[1]}-x{factor}")
            for factor in (0.5, 0.99, 1.01, 1 - 1e-11, 1 + 1e-11)
            for key in PINNED
            if factor in (0.5, 1 - 1e-11, 1 + 1e-11)
            or key not in (("Sc", "lemniscate(s=0.5)"), ("Cs", "strongly(alpha=0.5)"))
        ],
    )
    def test_wrong_series_cannot_change_the_radius(self, monkeypatch, key, factor):
        # a scaled series hints the wrong cell (too early or too late), so the
        # hinted-cell certificate fails and the fallback search over the whole
        # grid must still give the quadrature bits.  The search never probes
        # lhs(0.999) when there is a hint, so an early hint (x1.01) works for
        # Sc and Cc janowski(1, -1) and sakaguchi(0.25) too, whose lhs has a
        # pole at 1 (lhs(0.999) raises BudgetError there).  A series off by
        # 1e-11 hints the right cell and lies inside the quadrature tolerance,
        # but outside the guide's margin: it decides the last bisection steps
        # wrongly, and the certificate still hands the cell to quadrature
        class_id = ClassId.parse(key[0])
        spec = next(s for s in CANONICAL if s.label() == key[1])
        true_curve = solver._series_lhs_curve

        def scaled(*args):
            return ps.TruncatedSeries(factor * true_curve(*args).coeffs)

        monkeypatch.setattr(solver, "_series_lhs_curve", scaled)
        res = _cold_solve(class_id, spec)
        assert (res.r_f, res.residual, res.bracket) == PINNED[key]

    @pytest.mark.parametrize(
        "key, factor",
        [
            (("Ks", "wang(alpha=0.5, beta=1)"), 0.99999),
            (("Sc", "lemniscate(s=0.5)"), 1.00001),
            (("Cc", "lemniscate(s=0.5)"), 0.99999),
            (("Cs", "strongly(alpha=0.5)"), 1.00001),
        ],
        ids=lambda v: v if isinstance(v, float) else v[0],
    )
    def test_hinted_cell_when_only_the_bisection_is_off(self, monkeypatch, key, factor):
        # a series off by 1e-5 still hints the right grid cell, but its own
        # root there is not certified by quadrature; the fallback grid search
        # finds the same cell, so the radius is the quadrature-only search's
        class_id = ClassId.parse(key[0])
        spec = next(s for s in CANONICAL if s.label() == key[1])
        target = target_constant(class_id, spec)
        lhs = lambda r: lhs_at(class_id, spec, r)
        i = solver._first_reached(lhs, target)
        cell = solver._SCAN_GRID[i - 1], solver._SCAN_GRID[i]
        curve = ps.TruncatedSeries(factor * solver._series_lhs_curve(class_id, spec, 64).coeffs)
        series = ps.evaluator(curve)
        assert solver._first_reached(series, target) == i
        lo, hi = solver._bisect(lambda r: series(r) >= target, *cell)
        assert not lhs(lo) < target <= lhs(hi)
        monkeypatch.setattr(solver, "_series_lhs_curve", lambda *a: curve)
        res = _cold_solve(class_id, spec)
        assert (res.r_f, res.bracket) == self._quadrature_only(class_id, spec)
        assert (res.r_f, res.residual, res.bracket) == PINNED[key]

    @staticmethod
    def _quadrature_only(class_id, spec, tol=1e-10):
        """(r_f, bracket) of the quadrature-only search: the first grid cell
        where the lhs reaches the target, bisected on the lhs alone."""
        target = target_constant(class_id, spec, 64, tol)
        lhs = lambda r: lhs_at(class_id, spec, r, tol=tol)
        i = solver._first_reached(lhs, target)
        cell = solver._SCAN_GRID[i - 1], solver._SCAN_GRID[i]
        lo, hi = solver._bisect(lambda r: lhs(r) >= target, *cell)
        return 0.5 * (lo + hi), (lo, hi)

    @staticmethod
    def _quadrature_calls(monkeypatch, class_id, spec, order=64, tol=1e-10):
        """The quadrature calls of one cold solve, and its result."""
        calls = 0

        def counted(fn):
            def wrapper(*args, **kwargs):
                nonlocal calls
                calls += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as m:
            m.setattr(solver, "integrate_1d", counted(solver.integrate_1d))
            m.setattr(solver, "integrate_nested", counted(solver.integrate_nested))
            res = _cold_solve(class_id, spec, order, tol)
        return calls, res

    @pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-6], ids=str)
    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_quadrature_work_per_solve(self, monkeypatch, class_id, spec, tol):
        # the series decides every bisection step beyond its rounding and tail,
        # whatever the tolerance: two calls certify the bracket, one gives the
        # residual and one the Ks or Cs target, and the bracket is still the
        # quadrature-only search's
        want = self._quadrature_only(class_id, spec, tol)
        for order in (64, 256):
            first, res = self._quadrature_calls(monkeypatch, class_id, spec, order, tol)
            assert 0 < first <= 4
            assert self._quadrature_calls(monkeypatch, class_id, spec, order, tol)[0] == first
            assert (res.r_f, res.bracket) == want

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10], ids=str)
    @pytest.mark.parametrize(
        "solve",
        [solve_radius, lambda class_id, spec, tol: lhs_at(class_id, spec, 0.3, tol=tol)],
        ids=["plain", "lhs"],
    )
    def test_tolerance_must_be_positive_and_finite(self, solve, tol):
        with pytest.raises(ParameterError, match="positive and finite"):
            solve(ClassId.CC, janowski(1.0, -1.0), tol=tol)

    def test_no_root_message_names_what_was_reached(self):
        reached = r"lemniscate\(s=1e-06\).*lhs\(0\.999\) = 0\.99900\d* < target 0\.99999"
        with pytest.raises(NoRootError, match=reached):
            solve_radius(ClassId.SC, lemniscate(1e-6))

    @pytest.mark.parametrize("spec", [janowski(5e-324, 0.0), wang(0.0, 5e-324)], ids=lambda s: s.label())
    def test_smallest_janowski_a_has_no_cc_root(self, spec):
        # k(-1) = expm1(-A)/A = -1 keeps the target at 1 (exp(-A) - 1 gave
        # -0.0, an InconsistencyError), and the near-identity lhs stays below it
        assert target_constant(ClassId.CC, spec) == 1.0
        with pytest.raises(NoRootError, match=r"lhs\(0\.999\) = 0\.999 < target 1, so"):
            solve_radius(ClassId.CC, spec)

    @pytest.mark.parametrize(
        "spec, hint",
        [
            pytest.param(spec, hint, id=f"{spec.label()}-hint{hint}")
            for spec, hint in zip(CERTIFICATE_FALLBACK, (970, 987, 986))
        ],
    )
    def test_failed_certificate_falls_back_to_the_grid_search(self, spec, hint):
        # near r = 1 the truncated series, a lower bound on the lhs, hints the
        # cell after the root's, so quadrature does not confirm the bisected
        # bracket and the quadrature grid search finds the cell before it
        target = target_constant(ClassId.SC, spec)
        curve = solver._series_lhs_curve(ClassId.SC, spec, 64)
        assert solver._first_reached(ps.evaluator(curve), target) == hint
        assert solver._first_reached(lambda r: lhs_at(ClassId.SC, spec, r), target) == hint - 1
        res = _cold_solve(ClassId.SC, spec)
        assert solver._SCAN_GRID[hint - 2] < res.r_f < solver._SCAN_GRID[hint - 1]
        assert (res.r_f, res.residual, res.bracket) == CERTIFICATE_FALLBACK[spec]

    @pytest.mark.parametrize("order", [8, 12, 16, 24, 64, 128])
    def test_cs_radius_does_not_move_with_the_order(self, order):
        # the quadrature lhs reads M_{K'} = K' from the spec, so a low order
        # only steers the hint, whose tail guard sees 0 at even orders
        assert _cold_solve(ClassId.CS, strongly(0.5), order).r_f == 0.6190872504375879

    def test_nonnegative_radii_do_not_move_with_the_order(self):
        pairs = [(c, spec) for c in ClassId for spec in CANONICAL]
        for seed in range(1, 6):
            pairs += [
                (ClassId.parse(c), PhiSpec(family, params))
                for c, family, params in BENCH_INPUTS.box_draws(seed)
            ]
        pairs = [(c, spec) for c, spec in pairs if catalog.has_positive_coeffs(spec)]
        assert len(pairs) == 140
        for class_id, spec in pairs:
            solved = set()
            for order in (8, 16, 64, 256):
                res = solve_radius(class_id, spec, order)
                solved.add((res.r_f, res.residual, res.bracket))
            assert len(solved) == 1, (class_id, spec)


def _numpy_first_reached(coeffs, target):
    """The grid hint as numpy gives it: polyval over the whole scan grid, or
    the grid's length when the curve stays below the target."""
    on_grid = np.polynomial.polynomial.polyval(np.array(solver._SCAN_GRID), coeffs)
    reached = np.flatnonzero(on_grid >= target)
    return int(reached[0]) if reached.size else len(on_grid)


_NONNEGATIVE = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=1e300),
)


class TestGridHint:
    """The bisected hint is the first grid index where numpy's polyval of
    the series curve reaches the target: Horner's rule over nonnegative
    coefficients is monotone on x >= 0 in floating point too."""

    @settings(max_examples=400, deadline=None)
    @given(
        coeffs=st.lists(_NONNEGATIVE, min_size=1, max_size=80),
        target=st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
        tie_at=st.none() | st.integers(min_value=1, max_value=len(solver._SCAN_GRID) - 1),
    )
    def test_random_nonnegative_series(self, coeffs, target, tie_at):
        series = ps.evaluator(ps.TruncatedSeries(np.array(coeffs)))
        if tie_at is not None:  # a target the curve meets exactly at a grid point
            target = series(solver._SCAN_GRID[tie_at])
        assume(target > coeffs[0])  # the search starts below the target at r = 0
        assert solver._first_reached(series, target) == _numpy_first_reached(coeffs, target)

    def test_lhs_curves_of_canonical_and_box_specs(self):
        pairs = [(c, spec) for c in ClassId for spec in CANONICAL]
        for seed in range(1, 21):
            pairs += [
                (ClassId.parse(c), PhiSpec(family, params))
                for c, family, params in BENCH_INPUTS.box_draws(seed)
            ]
        assert len(pairs) == 24 + 20 * 24
        for class_id, spec in pairs:
            curve = solver._series_lhs_curve(class_id, spec, 64)
            target = target_constant(class_id, spec, 64, 1e-10)
            want = _numpy_first_reached(curve.coeffs, target)
            assert want < len(solver._SCAN_GRID)
            assert solver._first_reached(ps.evaluator(curve), target) == want, (class_id, spec)


class TestOrderFloor:
    @pytest.mark.parametrize("order", [-1, 0, 2, solver.MIN_ORDER - 1])
    def test_low_order_is_rejected(self, order):
        # one floor for every spec, though only a mixed-sign spec's radius
        # reads the series kernel that a low order truncates
        with pytest.raises(ParameterError, match=f"order must be at least 8, got {order}"):
            solve_radius(ClassId.CS, strongly(0.5), order)

    def test_fractional_order_is_rejected(self):
        # not truncated to the order-64 radius
        with pytest.raises(ParameterError, match="^order must be an integer, got 64.5$"):
            solve_radius(ClassId.SC, lemniscate(0.5), 64.5)

    def test_numpy_integer_order_gives_the_pinned_bits(self):
        res = solve_radius(ClassId.CS, strongly(0.5), np.int64(64))
        assert (res.r_f, res.residual, res.bracket) == PINNED[("Cs", "strongly(alpha=0.5)")]

    def test_floor_order_solves(self):
        res = solve_radius(ClassId.SC, lemniscate(0.5), solver.MIN_ORDER)
        assert res.r_f == pytest.approx(0.3040402, abs=1e-6)


class TestOrderCap:
    ENTRY_POINTS = {
        "phi_series": lambda order: phi_series(strongly(0.5), order),
        "build_extremal": lambda order: build_extremal(strongly(0.5), order),
        "kernel_series": lambda order: solver.kernel_series(ClassId.CS, strongly(0.5), order),
        "lhs_integrand": lambda order: lhs_integrand(ClassId.CC, strongly(0.5), order),
        "lhs_at": lambda order: lhs_at(ClassId.KS, strongly(0.5), 0.3, "quadrature", order),
        "target_constant": lambda order: target_constant(ClassId.CS, strongly(0.5), order),
        "solve_radius": lambda order: solve_radius(ClassId.KS, strongly(0.5), order),
        "verifier._members": lambda order: _members(ClassId.CS, strongly(0.5), [0.5], [1], order),
    }

    @staticmethod
    def _builds():
        return catalog._phi_series.cache_info().misses, extremal._build_extremal.cache_info().misses

    @pytest.mark.parametrize("order", [ps.MAX_ORDER + 1, 10**8, np.int64(ps.MAX_ORDER + 1)])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_order_above_the_cap_is_rejected_before_any_build(self, entry, order):
        before = self._builds()
        with pytest.raises(ParameterError, match=f"^order must be at most 4096, got {order}$"):
            self.ENTRY_POINTS[entry](order)
        assert self._builds() == before

    @pytest.mark.parametrize("order", [0, -5])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_order_below_one_is_rejected_before_any_build(self, entry, order):
        # the Ks integrand reads no series, yet an order of 0 is refused there too
        want = f"order must be at least 8, got {order}" if entry == "solve_radius" else "order must be positive"
        before = self._builds()
        with pytest.raises(ParameterError, match=f"^{want}$"):
            self.ENTRY_POINTS[entry](order)
        assert self._builds() == before

    def test_the_cap_is_an_admissible_order(self):
        assert ps.as_order(ps.MAX_ORDER) == ps.MAX_ORDER == 4096
