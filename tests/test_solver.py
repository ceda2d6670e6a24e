import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from _bench_inputs import BENCH_INPUTS

from bohrcc import power_series as ps
from bohrcc import solver
from bohrcc.catalog import (
    FAMILIES,
    PhiSpec,
    expblend,
    janowski,
    lemniscate,
    phi_series,
    sakaguchi,
    strongly,
    wang,
)
from bohrcc.errors import InconsistencyError, NoRootError, ParameterError
from bohrcc.extremal import build_extremal, h_at, k_prime_series
from bohrcc.solver import (
    ClassId,
    lhs_at,
    sharpness_witness,
    solve_corollary_closed_form,
    solve_radius,
    target_constant,
    threshold_scan,
)

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

    def test_witness_attains_bound(self):
        spec = sakaguchi(0.0)
        res = solve_radius(ClassId.SC, spec)
        report = sharpness_witness(ClassId.SC, spec, res, delta=0.01)
        assert report.ok
        assert report.value_at_radius == pytest.approx(0.25, abs=1e-7)
        assert report.bound == pytest.approx(0.25, abs=1e-12)
        assert report.exceeds_beyond is True

    def test_witness_zero_delta(self):
        spec = lemniscate(0.5)
        res = solve_radius(ClassId.SC, spec)
        report = sharpness_witness(ClassId.SC, spec, res, delta=0.0)
        assert report.ok and report.value_beyond is None

    def test_witness_requires_sharp_sc(self):
        res = solve_radius(ClassId.KS, sakaguchi(0.0))
        with pytest.raises(ParameterError):
            sharpness_witness(ClassId.KS, sakaguchi(0.0), res)


class TestSeriesVsQuadratureLhs:
    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    def test_sc_lhs_equals_growth_function_for_positive(self, spec):
        # positive coefficients collapse the Sc lhs to the extremal growth h(r)
        for r in (0.1, 0.25, 1 / 3):
            assert lhs_at(ClassId.SC, spec, r) == pytest.approx(h_at(spec, r), abs=1e-9)


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
            return ps.reflect(phi_series(s, order))

        def flipped_bundle(s, order):
            k_prime = k_prime_series(flipped_phi(s, order))
            K_prime = ps.sqrt_series(ps.compose_with_selfmap(k_prime, ps.monomial(1.0, 2, order)))
            return dataclasses.replace(build_extremal(s, order), k_prime=k_prime, K_prime=K_prime)

        monkeypatch.setattr(solver, "phi_series", flipped_phi)
        monkeypatch.setattr(solver, "build_extremal", flipped_bundle)
        assert np.array_equal(solver._series_lhs_curve(class_id, spec, 64).coeffs, plain.coeffs)
        res = _cold_solve(class_id, spec)
        assert (res.r_f, res.residual, res.bracket) == PINNED[(class_id.value, spec.label())]


class TestClosedForms:
    def test_sc_sakaguchi_base_case_is_algebraic(self):
        # r + 2 sqrt(r) - 1 = 0 -> r = 3 - 2 sqrt(2)
        res = solve_corollary_closed_form("sc-sakaguchi", {"gamma": 0.0})
        assert res.r_f == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-10)

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

    @pytest.mark.parametrize(
        "eid,params,r_f",
        [
            ("ks-sakaguchi", {"gamma": 0.0}, "0.25737441516844217"),
            ("ks-sakaguchi", {"gamma": 0.2}, "0.31564190103904366"),
            ("ks-wang", {"alpha": 0.5, "beta": 1.0}, "0.2979233101641058"),
            ("ks-wang", {"alpha": 0.25, "beta": 0.5}, "0.4657301226550317"),
            ("sc-lemniscate", {"s": 0.5}, "0.3040402215515769"),
            ("sc-lemniscate", {"s": 0.6}, "0.2605657770069683"),
            ("sc-sakaguchi", {"gamma": 0.25}, "0.2360679774998517"),
            ("sc-sakaguchi", {"gamma": 0.6}, "0.38784910553254137"),
            ("sc-expblend", {"alpha": 0.03}, "0.3269921740051814"),
            ("sc-expblend", {"alpha": 0.3}, "0.41445302640536286"),
            ("sc-janowski-b0", {"A": 0.9}, "0.3081098593471779"),
            ("sc-janowski-b0", {"A": 0.5}, "0.4776700622629051"),
            ("sc-janowski", {"A": 1.0, "B": -1.0}, "0.17157287525374154"),
            ("sc-janowski", {"A": 1.0, "B": -0.5}, "0.21178508605039498"),
        ],
    )
    def test_closed_form_bits(self, eid, params, r_f):
        assert repr(solve_corollary_closed_form(eid, params).r_f) == r_f

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            solve_corollary_closed_form("no-such-equation", {})
        with pytest.raises(ParameterError):
            solve_corollary_closed_form("sc-lemniscate", {})
        with pytest.raises(ParameterError):
            solve_corollary_closed_form("sc-janowski", {"A": 0.5, "B": 0.0})
        # B > 0: phi has mixed-sign coefficients, so h(r) is not the class lhs
        for b in (0.5, 0.05):
            with pytest.raises(ParameterError):
                solve_corollary_closed_form("sc-janowski", {"A": 0.9, "B": b})
        with pytest.raises(ParameterError):
            solve_corollary_closed_form("sc-lemniscate", {"s": 0.9})

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
            ("sc-sakaguchi", np.arange(0.45, 0.551, 1e-3), "0.5000000004768371"),
        ],
        ids=["lemniscate", "expblend", "ks-sakaguchi", "janowski-b0", "sc-sakaguchi"],
    )
    def test_threshold_bits(self, eid, grid, threshold):
        assert repr(threshold_scan(eid, grid).threshold) == threshold

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

    def test_scan_equations_are_the_one_parameter_rows(self):
        one = [
            e
            for e, (_, family, _, fixed) in solver.CLOSED_FORM_EQUATIONS.items()
            if len(FAMILIES[family]) - len(fixed) == 1
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
    ("Cc", "sakaguchi(gamma=0.25)"): (0.4017610510401431, 2.1272983374842624e-12, (0.4017610510364178, 0.4017610510438684)),
    ("Cs", "sakaguchi(gamma=0.25)"): (0.5334441121406854, 5.711764394789043e-12, (0.5334441121369602, 0.5334441121444108)),
    ("Ks", "lemniscate(s=0.5)"): (0.38566619777306943, 5.668465696828662e-12, (0.3856661977693442, 0.38566619777679473)),
    ("Sc", "lemniscate(s=0.5)"): (0.3040402215532961, 2.8602120671905595e-12, (0.3040402215495708, 0.3040402215570214)),
    ("Cc", "lemniscate(s=0.5)"): (0.4979361398704354, 5.294764626739834e-12, (0.4979361398667101, 0.49793613987416063)),
    ("Cs", "lemniscate(s=0.5)"): (0.6263652073852723, 4.980904577678302e-12, (0.6263652073815471, 0.6263652073889976)),
    ("Ks", "expblend(alpha=0.03)"): (0.4065969111211601, 1.9910739723627557e-12, (0.4065969111174348, 0.4065969111248854)),
    ("Sc", "expblend(alpha=0.03)"): (0.3269921740032735, 3.760436406707868e-12, (0.3269921739995482, 0.32699217400699876)),
    ("Cc", "expblend(alpha=0.03)"): (0.5095123850964014, 6.45394848675096e-12, (0.509512385092676, 0.5095123851001266)),
    ("Cs", "expblend(alpha=0.03)"): (0.6383017416559165, 1.8799406475977776e-12, (0.6383017416521912, 0.6383017416596418)),
    ("Ks", "strongly(alpha=0.5)"): (0.3774595882706347, 4.7628567756419216e-14, (0.3774595882669094, 0.37745958827436)),
    ("Sc", "strongly(alpha=0.5)"): (0.2996327950470151, 2.3552826355910383e-12, (0.2996327950432899, 0.2996327950507404)),
    ("Cc", "strongly(alpha=0.5)"): (0.4938682491369549, 4.832134692378531e-12, (0.4938682491332296, 0.49386824914068017)),
    ("Cs", "strongly(alpha=0.5)"): (0.6190872504375879, 4.968914169012351e-12, (0.6190872504338626, 0.6190872504413132)),
    ("Ks", "wang(alpha=0.5, beta=1)"): (0.2979233101643624, 1.0996759058912176e-12, (0.2979233101606371, 0.2979233101680877)),
    ("Sc", "wang(alpha=0.5, beta=1)"): (0.2117850860469045, 5.936640068426868e-12, (0.2117850860431792, 0.21178508605062976)),
    ("Cc", "wang(alpha=0.5, beta=1)"): (0.3964325485266748, 2.368993889945159e-12, (0.3964325485229495, 0.3964325485304001)),
    ("Cs", "wang(alpha=0.5, beta=1)"): (0.5261763953678313, 2.6608715231191127e-12, (0.5261763953641061, 0.5261763953715566)),
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
            (ClassId.CS, strongly(0.05), 0.9374887151829907),
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
        assert self._quadrature_calls(monkeypatch, class_id, spec) <= 20

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
            for factor in (0.5, 0.99)
            for key in PINNED
            if factor == 0.5 or key not in (("Sc", "lemniscate(s=0.5)"), ("Cs", "strongly(alpha=0.5)"))
        ],
    )
    def test_wrong_series_cannot_change_the_radius(self, monkeypatch, key, factor):
        # a scaled series hints the wrong cell (too early or too late), so the
        # hinted-cell certificate fails and the fallback search must still
        # give the quadrature bits.  A late hint (x0.5 and x0.99 on every
        # pair) confines that search to the grid above the hint; a search of
        # the whole grid would probe lhs(0.999) first, which raises
        # BudgetError for Sc and Cc janowski(1, -1) and sakaguchi(0.25),
        # whose lhs has a pole at 1
        class_id = ClassId.parse(key[0])
        spec = next(s for s in CANONICAL if s.label() == key[1])
        true_curve = solver._series_lhs_curve

        def scaled(*args):
            return ps.TruncatedSeries(factor * true_curve(*args).coeffs)

        monkeypatch.setattr(solver, "_series_lhs_curve", scaled)
        res = _cold_solve(class_id, spec)
        assert (res.r_f, res.residual, res.bracket) == PINNED[key]

    @staticmethod
    def _quadrature_calls(monkeypatch, class_id, spec) -> int:
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
            _cold_solve(class_id, spec)
        return calls

    @pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_quadrature_work_per_solve(self, monkeypatch, class_id, spec):
        first = self._quadrature_calls(monkeypatch, class_id, spec)
        assert 0 < first <= 10
        assert self._quadrature_calls(monkeypatch, class_id, spec) == first

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


def _numpy_first_reached(coeffs, target):
    """The grid hint as numpy gives it: polyval over the whole scan grid."""
    on_grid = np.polynomial.polynomial.polyval(np.array(solver._SCAN_GRID), coeffs)
    reached = np.flatnonzero(on_grid >= target)
    return int(reached[0]) if reached.size else None


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
            assert want is not None
            assert solver._first_reached(ps.evaluator(curve), target) == want, (class_id, spec)


class TestOrderFloor:
    @pytest.mark.parametrize("order", [-1, 0, 2, solver.MIN_ORDER - 1])
    def test_low_order_is_rejected(self, order):
        # at order 2 the Cs curve would give a wrong radius with a tiny residual
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
