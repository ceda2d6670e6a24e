"""The Ks, Sc and Cc radii against a 30-digit mpmath oracle.

Every canonical spec has nonnegative coefficients, so each majorant in a
class lhs is the function itself: the Ks radius is the root of
integral_0^r phi(t)/(1-t^2) dt = integral_0^1 phi(-t)/(1+t^2) dt, the Sc
radius the root of h(r) = -h(-1) and the Cc radius the root of
k(r) = -k(-1).  ``oracle`` finds each root without any of bohrcc's series,
quadrature or closed forms.  The Cc oracle takes k by nested quadrature,
several seconds a spec, so its sweep is marked ``slow``.
"""

from functools import cache

import pytest
from oracle import cc_root, ks_root, sc_root

from bohrcc.catalog import expblend, janowski, lemniscate, sakaguchi, strongly, wang
from bohrcc.solver import ClassId, solve_corollary_closed_form, solve_radius

CANONICAL = [
    janowski(1.0, -1.0),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.03),
    strongly(0.5),
    wang(0.5, 1.0),
]

#: (closed-form equation, parameters, the spec it is the Sc equation of)
CLOSED_FORMS = [
    ("sc-janowski", {"A": 1.0, "B": -1.0}, janowski(1.0, -1.0)),
    ("sc-sakaguchi", {"gamma": 0.25}, sakaguchi(0.25)),
    ("sc-lemniscate", {"s": 0.5}, lemniscate(0.5)),
    ("sc-expblend", {"alpha": 0.03}, expblend(0.03)),
    ("sc-janowski", {"A": 1.0, "B": -0.5}, wang(0.5, 1.0)),
    ("sc-janowski-b0", {"A": 0.9}, janowski(0.9, 0.0)),
]

#: (closed-form equation, parameters, the spec it is the Ks equation of)
KS_CLOSED_FORMS = [
    ("ks-sakaguchi", {"gamma": 0.0}, sakaguchi(0.0)),
    ("ks-sakaguchi", {"gamma": 0.2}, sakaguchi(0.2)),
    ("ks-wang", {"alpha": 0.5, "beta": 1.0}, wang(0.5, 1.0)),
]

oracle_root = cache(sc_root)  # one findroot per spec, shared by both checks
ks_oracle_root = cache(ks_root)


def assert_brackets(class_id, spec, root):
    res = solve_radius(class_id, spec)
    lo, hi = res.bracket
    assert lo <= root <= hi
    assert abs(res.r_f - root) <= 1e-11


@pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
def test_general_solver_brackets_the_oracle_root(spec):
    assert_brackets(ClassId.SC, spec, oracle_root(spec))


@pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
def test_ks_solver_brackets_the_oracle_root(spec):
    assert_brackets(ClassId.KS, spec, ks_oracle_root(spec))


@pytest.mark.parametrize(
    "eid,params,spec", KS_CLOSED_FORMS, ids=[f"{e}-{s.label()}" for e, _, s in KS_CLOSED_FORMS]
)
def test_ks_closed_form_matches_the_oracle_root(eid, params, spec):
    res = solve_corollary_closed_form(eid, params)
    assert abs(res.r_f - ks_oracle_root(spec)) <= 1e-11


def test_cc_radius_of_janowski_1_minus_1_is_one_third():
    # k' = (1-x)^-2, so k(x) = x/(1-x) and k(r) = -k(-1) = 1/2 at r = 1/3 exactly
    assert_brackets(ClassId.CC, janowski(1.0, -1.0), 1.0 / 3.0)


@pytest.mark.slow
@pytest.mark.parametrize("spec", CANONICAL[1:], ids=lambda s: s.label())
def test_cc_solver_brackets_the_oracle_root(spec):
    assert_brackets(ClassId.CC, spec, cc_root(spec))


@pytest.mark.parametrize(
    "eid,params,spec", CLOSED_FORMS, ids=[f"{e}-{s.label()}" for e, _, s in CLOSED_FORMS]
)
def test_closed_form_matches_the_oracle_root(eid, params, spec):
    res = solve_corollary_closed_form(eid, params)
    assert abs(res.r_f - oracle_root(spec)) <= 1e-11
