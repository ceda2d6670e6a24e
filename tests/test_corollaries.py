"""Property tests for the corollary equations and their threshold scans.

Each ``CLOSED_FORM_EQUATIONS`` row is the class equation on one family
slice, so over the row's free-parameter box (``routes.FAMILY_BOXES`` with
the row's fixed parameters set) it must give ``solve_radius``'s radius on
the same spec within 1e-7, with the same sharpness verdict and notes.  Two
outcomes are not radii, and both are documented: an Sc row refuses a spec
whose phi mixes signs (its lhs is M_h, not h), and ``solve_radius`` raises
``NoRootError`` for a root past 0.999, the end of its grid (a corollary
finds roots up to 1 - 1e-12).

A threshold scan decides "root at most 1/3" by lhs(1/3) >= rhs alone, the
test that also decides an Sc result's ``sharp``, so each row's flag is the
sharp verdict of its corollary.  On a drawn increasing grid it must find
the crossing (gamma = 1/2 for sc-sakaguchi, A = (3/4) ln 3 for
sc-janowski-b0) within 1e-9 when the grid straddles it, and report no
threshold when it does not, grid points within 1e-13 of the crossing
included.  Within 1e-15 of it the predicate may read either side (it
misjudged only the float next to the crossing in a sweep of 2,000 floats
each side), so such a point may or may not open a bracket, but any
threshold still lies within 1e-9.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from routes import FAMILY_BOXES

from bohrcc.catalog import FAMILIES, PhiSpec, has_positive_coeffs
from bohrcc.errors import NoRootError, ParameterError
from bohrcc.solver import (
    CLOSED_FORM_EQUATIONS,
    solve_corollary_closed_form,
    solve_radius,
    threshold_scan,
)

EQUATIONS = sorted(CLOSED_FORM_EQUATIONS)


def _spec(eid: str, free: dict) -> PhiSpec:
    _, family, _, fixed = CLOSED_FORM_EQUATIONS[eid]
    return PhiSpec(family, tuple({**free, **fixed}[n] for n in FAMILIES[family].names))


def _free_box(eid: str):
    """The row's free parameters, drawn from its family's box with the
    fixed parameters set, as a dict."""
    _, family, _, fixed = CLOSED_FORM_EQUATIONS[eid]
    names = FAMILIES[family].names
    return (
        FAMILY_BOXES[family]
        .map(lambda p: {**dict(zip(names, p)), **fixed})
        .filter(lambda d: FAMILIES[family].admits(*(d[n] for n in names)))
        .map(lambda d: {n: d[n] for n in names if n not in fixed})
    )


def _check_agreement(eid: str, free: dict):
    class_id = CLOSED_FORM_EQUATIONS[eid][0]
    spec = _spec(eid, free)
    if not has_positive_coeffs(spec):  # only sc-janowski draws these
        with pytest.raises(ParameterError, match="mixed-sign coefficients"):
            solve_corollary_closed_form(eid, free)
        return
    try:
        closed = solve_corollary_closed_form(eid, free)
    except NoRootError:  # no root below 1 - 1e-12: none on the general solver's grid either
        with pytest.raises(NoRootError):
            solve_radius(class_id, spec)
        return
    try:
        general = solve_radius(class_id, spec)
    except NoRootError:
        assert closed.r_f > 0.999, (eid, free, closed.r_f)
        return
    assert abs(closed.r_f - general.r_f) <= 1e-7, (eid, free, closed.r_f, general.r_f)
    assert (closed.sharp, closed.notes) == (general.sharp, general.notes), (eid, free)


@pytest.mark.parametrize("eid", EQUATIONS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_each_row_agrees_with_the_general_solver(eid, data):
    _check_agreement(eid, data.draw(_free_box(eid)))


@pytest.mark.slow
@pytest.mark.parametrize("eid", EQUATIONS)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_each_row_agrees_with_the_general_solver_at_length(eid, data):
    _check_agreement(eid, data.draw(_free_box(eid)))


@settings(max_examples=25, deadline=None)
@given(ab=FAMILY_BOXES["janowski"].filter(lambda ab: ab[1] > 0.0))
def test_a_mixed_sign_sc_slice_is_refused(ab):
    with pytest.raises(ParameterError, match="mixed-sign coefficients"):
        solve_corollary_closed_form("sc-janowski", {"A": ab[0], "B": ab[1]})


#: equation -> (its free parameter, the crossing, whether the window lies below it)
CROSSINGS = {
    "sc-sakaguchi": ("gamma", 0.5, True),
    "sc-janowski-b0": ("A", 0.75 * math.log(3.0), False),
}
_BAND = 1e-15  # where the predicate may read either side of the crossing


def _grids(eid: str):
    name, crossing, _ = CROSSINGS[eid]
    near = st.floats(-1e-13, 1e-13).map(lambda d: crossing + d)
    far = _free_box(eid).map(lambda d: d[name])
    return st.lists(st.one_of(far, near), min_size=2, max_size=8, unique=True).map(sorted)


def _check_threshold(eid: str, grid: list[float]):
    name, crossing, window_below = CROSSINGS[eid]
    try:
        scan = threshold_scan(eid, grid)
    except NoRootError:  # the root farthest from the window lies past 1 - 1e-12
        with pytest.raises(NoRootError):
            solve_corollary_closed_form(eid, {name: grid[-1] if window_below else grid[0]})
        return
    clear = [p for p in grid if abs(p - crossing) >= _BAND]
    for row in scan.rows:
        assert row.in_sharp_window == solve_corollary_closed_form(eid, {name: row.param}).sharp
        if abs(row.param - crossing) >= _BAND:
            assert row.in_sharp_window == ((row.param < crossing) == window_below), (eid, row)
    sides = {p < crossing for p in clear}
    if len(sides) == 2:
        assert scan.threshold is not None and abs(scan.threshold - crossing) <= 1e-9, (eid, grid, scan)
    elif len(clear) == len(grid):
        assert scan.bracket is None and scan.threshold is None, (eid, grid, scan)
    elif scan.threshold is not None:
        assert abs(scan.threshold - crossing) <= 1e-9, (eid, grid, scan)


@pytest.mark.parametrize("eid", sorted(CROSSINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_scan_finds_the_crossing_it_straddles(eid, data):
    _check_threshold(eid, data.draw(_grids(eid)))


@pytest.mark.slow
@pytest.mark.parametrize("eid", sorted(CROSSINGS))
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_a_scan_finds_the_crossing_it_straddles_at_length(eid, data):
    _check_threshold(eid, data.draw(_grids(eid)))


@pytest.mark.parametrize("eid", sorted(CROSSINGS))
@pytest.mark.parametrize("offset", [-1e-13, -3e-14, 3e-14, 1e-13])
def test_a_grid_point_within_1e_13_of_the_crossing(eid, offset):
    _, crossing, _ = CROSSINGS[eid]
    _check_threshold(eid, [crossing - 0.01, crossing + offset])
    _check_threshold(eid, [crossing + offset, crossing + 0.01])
