"""The Sc radii against a 30-digit mpmath oracle.

Every canonical spec has nonnegative coefficients, so its Sc radius is the
root of h(r) = -h(-1); ``oracle.sc_root`` finds it without any of bohrcc's
series, quadrature or closed forms.
"""

from functools import cache

import pytest
from oracle import sc_root

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

oracle_root = cache(sc_root)  # one findroot per spec, shared by both checks


@pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.label())
def test_general_solver_brackets_the_oracle_root(spec):
    res = solve_radius(ClassId.SC, spec)
    root = oracle_root(spec)
    lo, hi = res.bracket
    assert lo <= root <= hi
    assert abs(res.r_f - root) <= 1e-11


@pytest.mark.parametrize(
    "eid,params,spec", CLOSED_FORMS, ids=[f"{e}-{s.label()}" for e, _, s in CLOSED_FORMS]
)
def test_closed_form_matches_the_oracle_root(eid, params, spec):
    res = solve_corollary_closed_form(eid, params)
    assert abs(res.r_f - oracle_root(spec)) <= 1e-11
