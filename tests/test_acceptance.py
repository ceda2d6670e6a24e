"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -s`` to see them)."""

import math
import time

import numpy as np
import pytest

from bohrcc import power_series as ps
from bohrcc.catalog import expblend, janowski, lemniscate, sakaguchi, strongly, wang
from bohrcc.extremal import build_extremal, h_evaluator
from bohrcc.reference import TABLE1, TABLE2, TABLE3, TABLE4, decimals, truncate_to
from bohrcc.solver import (
    ClassId,
    lhs_at,
    solve_corollary_closed_form,
    solve_radius,
    threshold_scan,
)
from bohrcc.verifier import SelfMap, check_bohr, run_campaign, sample_member
from routes import check_subordination_lemma, compose_with_selfmap, distance_integral_at, monomial, shift_up

TABLE_TOL = 1e-11
CANONICAL = [
    janowski(1.0, -1.0),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.03),
    strongly(0.5),
    wang(0.5, 1.0),
]


def _printed_precision_tol(ref: str) -> float:
    d = decimals(ref)
    return 5e-7 if d >= 7 else 5.0 * 10.0 ** (-d)


def _assert_table_row_agrees(general: float, corollary: float, ref: str):
    """`table` prints the corollary root of h(r) = -h(-1); the general
    solver must print the same digits and diff, and lie within 1e-11."""
    assert format(general, ".9g") == format(corollary, ".9g")
    assert truncate_to(general, decimals(ref)) == truncate_to(corollary, decimals(ref))
    assert abs(general - corollary) <= 1e-11


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for s, ref in TABLE1:
        r_f = solve_radius(ClassId.SC, lemniscate(s), tol=TABLE_TOL).r_f
        worst = max(worst, abs(r_f - float(ref)))
        assert abs(r_f - float(ref)) <= 1e-4, (s, r_f, ref)
        _assert_table_row_agrees(r_f, solve_corollary_closed_form("sc-lemniscate", {"s": s}).r_f, ref)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"table 1 took {elapsed:.2f}s, budget is 5s"
    print(f"\n[criterion 1] PASS: 14/14 lemniscate radii within 1e-4 "
          f"(worst {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_2_table4_reproduction():
    worst = 0.0
    for a, b, ref in TABLE4:
        r_f = solve_radius(ClassId.SC, janowski(a, b), tol=TABLE_TOL).r_f
        worst = max(worst, abs(r_f - float(ref)))
        assert abs(r_f - float(ref)) <= 1e-4, (a, b, r_f, ref)
        _assert_table_row_agrees(r_f, solve_corollary_closed_form("sc-janowski", {"A": a, "B": b}).r_f, ref)
    anchor = solve_radius(ClassId.SC, janowski(1.0, -1.0), tol=TABLE_TOL).r_f
    exact = 3.0 - 2.0 * math.sqrt(2.0)
    assert abs(anchor - exact) <= 1e-10
    print(f"[criterion 2] PASS: 20/20 Janowski radii within 1e-4 (worst {worst:.2e}); "
          f"analytic anchor off by {abs(anchor - exact):.2e}")


def test_criterion_3_ks_base_case_both_routes():
    exact = math.log(2.0) / (2.0 + math.log(2.0))
    general = solve_radius(ClassId.KS, sakaguchi(0.0), tol=TABLE_TOL).r_f
    closed = solve_corollary_closed_form("ks-sakaguchi", {"gamma": 0.0}).r_f
    assert abs(general - exact) <= 1e-9
    assert abs(closed - exact) <= 1e-9
    print(f"[criterion 3] PASS: quadrature route off by {abs(general - exact):.2e}, "
          f"closed equation off by {abs(closed - exact):.2e}")


@pytest.mark.parametrize("table,factory,label", [(TABLE2, expblend, "2"), (TABLE3, strongly, "3")])
def test_criterion_4_growth_tables(table, factory, label):
    worst = 0.0
    for alpha, h3_ref, hm1_ref, sign0_ref, sign3_ref in table:
        h = h_evaluator(factory(alpha))
        h3 = h(1.0 / 3.0)
        hm1 = -h(-1.0)
        assert abs(h3 - float(h3_ref)) <= _printed_precision_tol(h3_ref), (alpha, h3, h3_ref)
        assert abs(hm1 - float(hm1_ref)) <= _printed_precision_tol(hm1_ref), (alpha, hm1, hm1_ref)
        worst = max(worst, abs(h3 - float(h3_ref)), abs(hm1 - float(hm1_ref)))
        assert sign0_ref == "-"  # the gap at 0 is h(-1) < 0 for every row
        assert ("+" if h3 - hm1 > 0 else "-") == sign3_ref, (alpha, h3, hm1)
    print(f"[criterion 4] PASS: table {label} columns at printed precision "
          f"(worst {worst:.2e}) and all gap signs match")


def test_criterion_5_threshold_brackets():
    lem = threshold_scan("sc-lemniscate", np.arange(0.40, 0.501, 1e-3)).threshold
    blend = threshold_scan("sc-expblend", np.arange(0.0, 0.081, 1e-3)).threshold
    gam = threshold_scan("ks-sakaguchi", np.arange(0.25, 0.271, 1e-3)).threshold
    assert 0.4449 < lem < 0.4450
    assert 0.0528 < blend < 0.0529
    assert 0.2590 < gam < 0.2591
    print(f"[criterion 5] PASS: sharpness thresholds s={lem:.6f}, alpha={blend:.6f}, "
          f"gamma={gam:.6f} inside their brackets")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    radii = (0.1, 0.2, 1.0 / 3.0)
    for spec in CANONICAL:
        for class_id in ClassId:
            for r in radii:
                q = lhs_at(class_id, spec, r, "quadrature")
                s = lhs_at(class_id, spec, r, "series")
                worst = max(worst, abs(q - s))
                assert abs(q - s) <= 1e-8, (class_id.value, spec.label(), r, q, s)
        for class_id in (ClassId.KS, ClassId.CS):
            for r in radii:
                q = distance_integral_at(class_id, spec, r, "quadrature")
                s = distance_integral_at(class_id, spec, r, "series")
                worst = max(worst, abs(q - s))
                assert abs(q - s) <= 1e-8, (class_id.value, spec.label(), r, q, s)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s, budget is 10s"
    print(f"[criterion 6] PASS: quadrature and series routes agree to 1e-8 across "
          f"6 integral families x 6 specs (worst {worst:.2e}) in {elapsed:.2f}s")


def test_criterion_7_algebraic_identities():
    worst_hk = worst_odd = 0.0
    for spec in CANONICAL:
        es = build_extremal(spec, 48)
        z_kprime = ps.mul(monomial(1.0, 1, 48), es.k_prime)
        h = shift_up(es.k_prime)
        diff = float(np.max(np.abs(h.coeffs[:40] - z_kprime.coeffs[:40])))
        worst_hk = max(worst_hk, diff)
        assert diff <= 1e-10, spec.label()
        zKp = shift_up(es.K_prime)
        lhs = ps.mul(zKp, zKp)
        rhs = compose_with_selfmap(h, monomial(1.0, 2, 48))
        diff = float(np.max(np.abs(lhs.coeffs[:40] - rhs.coeffs[:40])))
        worst_odd = max(worst_odd, diff)
        assert diff <= 1e-10, spec.label()
    print(f"[criterion 7] PASS: h = z k' (worst {worst_hk:.2e}) and the odd extremal "
          f"square identity (worst {worst_odd:.2e}) hold through order 40")


def test_criterion_8_property_suite():
    # 500 randomized subordination-majorant cases
    rng = np.random.default_rng(20240801)
    grid = [0.05, 0.15, 0.25, 1.0 / 3.0]
    for case in range(500):
        f = ps.TruncatedSeries(rng.normal(scale=1.5, size=24))
        omega = SelfMap(float(rng.uniform(0, 1)), int(rng.integers(1, 8)))
        assert check_subordination_lemma(f, omega, grid), (case, omega)

    # 100-sample campaigns per (class, spec)
    campaigns = 0
    for spec in CANONICAL:
        for class_id in ClassId:
            result = solve_radius(class_id, spec)
            assert result.residual <= 1e-8, (class_id.value, spec.label())
            report = run_campaign(class_id, spec, 100, seed=20240802 + campaigns)
            assert report.ok, (class_id.value, spec.label(), report.failures)
            campaigns += 1

    # sharp Sc cases: the extremal sits on the bound at r_f and breaks past it
    for spec in CANONICAL:
        result = solve_radius(ClassId.SC, spec)
        assert result.sharp, spec.label()
        extremal = sample_member(ClassId.SC, spec, SelfMap(1.0))
        _, margin = check_bohr(extremal, result.r_f)
        assert abs(margin) <= 1e-7, (spec.label(), margin)
        holds, _ = check_bohr(extremal, result.r_f + 0.01)
        assert not holds, spec.label()
    print(f"[criterion 8] PASS: 500 subordination cases, {campaigns} campaigns x 100 "
          f"samples, and 6 sharp-case witnesses all hold")
