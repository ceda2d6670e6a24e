"""Every admissible input gets a radius or a documented error.

For each family box of ``routes.FAMILY_BOXES`` and each class, a cold
``solve_radius`` at the default order and tolerance does one of three
things.  It returns a result whose capped radius is min(1/3, r_f) and
whose final bracket straddles the target on the quadrature lhs,
lhs(lo) < target <= lhs(hi).  Or it raises ``NoRootError``, for a lhs that
stays below the target up to 0.999 (near-identity shape functions), or
``PrecisionError``, for a mixed-sign kernel series whose truncation tail it
cannot certify (Janowski with B near 1).  Any other error fails.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from routes import FAMILY_BOXES
from test_caches import clear_all

from bohrcc.catalog import PhiSpec
from bohrcc.errors import NoRootError, PrecisionError
from bohrcc.solver import ClassId, lhs_at, solve_radius, target_constant

FAMILIES = sorted(FAMILY_BOXES)


def _check_outcome(class_id: ClassId, spec: PhiSpec):
    clear_all()
    try:
        res = solve_radius(class_id, spec)
    except (NoRootError, PrecisionError):
        return
    assert res.capped == min(1.0 / 3.0, res.r_f), (spec, res)
    lo, hi = res.bracket
    target = target_constant(class_id, spec)
    assert lhs_at(class_id, spec, lo) < target <= lhs_at(class_id, spec, hi), (spec, res)


@pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_a_box_input_gets_a_radius_or_a_documented_error(family, class_id, data):
    _check_outcome(class_id, PhiSpec(family, data.draw(FAMILY_BOXES[family])))


@pytest.mark.slow
@pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_box_input_gets_a_radius_or_a_documented_error_at_length(family, class_id, data):
    _check_outcome(class_id, PhiSpec(family, data.draw(FAMILY_BOXES[family])))
