"""The argument checkers ``errors.as_int`` and ``errors.as_real``, and the
entry points that route their counts and real numbers through them.

A bool is an int to Python and a string or bytes holds digits, but none of
them is a count or a real parameter here: each raises the caller's
ParameterError.  numpy integers and floats and Fractions are numbers, and
are stored as the int or float they equal.  The solver's entry points that
take a class and a spec refuse any other type of either with a
ParameterError too, before they read an attribute off it.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from bohrcc import power_series as ps
from bohrcc.catalog import PhiSpec, check_min_max_hypothesis, lemniscate, strongly
from bohrcc.errors import ParameterError, as_int, as_real
from bohrcc.quadrature import check_tol
from bohrcc.solver import (
    ClassId,
    distance_integral_at,
    lhs_at,
    solve_radius,
    target_constant,
    threshold_scan,
)
from bohrcc.verifier import SelfMap, check_bohr, run_campaign, sample_member

NOT_INTEGERS = [True, False, np.bool_(True), 2.0, 2.5, "2", b"2", Fraction(2, 1), None]
NOT_REALS = [True, False, np.bool_(False), "0.5", b"0.5", None, 1j, math.nan, math.inf, -math.inf,
             np.float64(math.nan), 10**400, Fraction(10**400, 3)]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_as_int_rejects(value):
    with pytest.raises(ParameterError, match="^wanted a count$"):
        as_int(value, "wanted a count")


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)], ids=repr)
def test_as_int_converts(value):
    out = as_int(value, "wanted a count")
    assert out == 3 and type(out) is int


@pytest.mark.parametrize("value", NOT_REALS, ids=repr)
def test_as_real_rejects(value):
    with pytest.raises(ParameterError, match="^wanted a real$"):
        as_real(value, "wanted a real")


@pytest.mark.parametrize(
    "value, want",
    [(0.25, 0.25), (-3, -3.0), (np.float64(0.25), 0.25), (np.float32(0.25), 0.25),
     (np.int64(2), 2.0), (Fraction(1, 4), 0.25), (10**300, 1e300)],
    ids=repr,
)
def test_as_real_converts(value, want):
    out = as_real(value, "wanted a real")
    assert out == want and type(out) is float


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("janowski", (True, -1), "janowski requires -1 <= B < A <= 1, got A=True, B=-1"),
        ("lemniscate", ("0.5",), "lemniscate requires 0 < s <= 1/sqrt(2), got '0.5'"),
        ("lemniscate", (b"0.5",), "lemniscate requires 0 < s <= 1/sqrt(2), got b'0.5'"),
        ("wang", (0.5, None), "wang requires 0 <= alpha <= 1 and 0 < beta <= 1, got 0.5, None"),
    ],
)
def test_spec_parameters_are_reals(family, params, message):
    with pytest.raises(ParameterError) as exc:
        PhiSpec(family, params)
    assert str(exc.value) == message


@pytest.mark.parametrize("params", [0.5, None, np.float64(0.5)], ids=repr)
def test_spec_parameters_are_a_sequence(params):
    with pytest.raises(ParameterError, match=r"^strongly takes parameters \('alpha',\) as a sequence, got "):
        PhiSpec("strongly", params)


def test_spec_parameters_convert_to_floats():
    spec = PhiSpec("janowski", (Fraction(1, 2), np.int64(-1)))
    assert spec == PhiSpec("janowski", (0.5, -1.0))
    assert [type(p) for p in spec.params] == [float, float]
    assert type(PhiSpec("lemniscate", (np.float32(0.5),)).params[0]) is float


def test_order_and_tolerance_convert():
    assert type(ps.as_order(np.int64(64))) is int
    assert check_tol(Fraction(1, 10**10)) == 1e-10 and type(check_tol(np.float32(0.5))) is float


@pytest.mark.parametrize("point", ["0.40", b"0.40", True, math.nan])
def test_scan_grid_points_are_reals(point):
    with pytest.raises(ParameterError, match="^scan parameters must be finite reals, got "):
        threshold_scan("sc-lemniscate", [0.3, point, 0.5])


def test_scan_grid_converts():
    scan = threshold_scan("sc-lemniscate", [Fraction(1, 2), np.float32(0.625)])
    assert [type(row.param) for row in scan.rows] == [float, float]


def test_campaign_radius_is_a_real():
    with pytest.raises(ParameterError, match=r"^the radius to check must satisfy 0 < r < 1, got '0\.3'$"):
        run_campaign(ClassId.SC, lemniscate(0.5), 5, 1, r="0.3")
    report = run_campaign(ClassId.SC, lemniscate(0.5), np.int64(5), np.int64(1), r=Fraction(1, 4))
    assert report.r_checked == 0.25 and type(report.r_checked) is float
    assert report == run_campaign(ClassId.SC, lemniscate(0.5), 5, 1, r=0.25)


def test_check_bohr_radius_is_a_real():
    sf = sample_member(ClassId.SC, lemniscate(0.5), SelfMap(0.5, 2))
    for r in ("0.3", True, None):
        with pytest.raises(ParameterError, match="^the radius to check must satisfy 0 < r < 1, got "):
            check_bohr(sf, r)
    assert check_bohr(sf, Fraction(3, 10)) == check_bohr(sf, 0.3)


def test_self_map_stores_a_float_epsilon():
    omega = SelfMap(Fraction(1, 2), np.int64(2))
    assert omega == SelfMap(0.5, 2)
    assert (type(omega.epsilon), type(omega.power)) == (float, int)


@pytest.mark.parametrize("r", ["0.3", True, math.nan], ids=repr)
def test_lhs_radius_is_a_real(r):
    for method in ("quadrature", "series"):
        with pytest.raises(ParameterError, match="^lhs_at takes a real r with 0 <= r < 1, got "):
            lhs_at(ClassId.KS, strongly(0.5), r, method)
    with pytest.raises(ParameterError, match="^distance_integral_at takes a real r with 0 <= r <= 1, got "):
        distance_integral_at(ClassId.KS, strongly(0.5), r)


@pytest.mark.parametrize("class_id", [ClassId.KS, ClassId.CS], ids=lambda c: c.value)
@pytest.mark.parametrize("r", [-0.5, -1e-300, 1.5, math.nan], ids=repr)
def test_distance_integral_takes_one_radius_range(class_id, r):
    # one text for every class, whichever rule, 1-D or nested, would integrate
    text = re.escape(f"distance_integral_at takes a real r with 0 <= r <= 1, got {r!r}")
    with pytest.raises(ParameterError, match=f"^{text}$"):
        distance_integral_at(class_id, strongly(0.5), r)


@pytest.mark.parametrize("class_id", [ClassId.KS, ClassId.CS], ids=lambda c: c.value)
def test_distance_integral_reads_both_ends(class_id):
    # r = 1 is the target itself, and the integral from 0 to 0 is empty
    assert distance_integral_at(class_id, strongly(0.5), 0.0) == 0.0
    assert distance_integral_at(class_id, strongly(0.5), 1.0) == target_constant(class_id, strongly(0.5))


#: each entry point that takes a class and a spec, called with a good radius
#: where it takes one, and the arguments of the wrong type it refuses
PAIR_ENTRY_POINTS = {
    "solve_radius": lambda c, s: solve_radius(c, s),
    "target_constant": lambda c, s: target_constant(c, s),
    "lhs_at": lambda c, s: lhs_at(c, s, 0.3),
    "lhs_at-series": lambda c, s: lhs_at(c, s, 0.3, "series"),
    "distance_integral_at": lambda c, s: distance_integral_at(c, s, 0.3),
    "run_campaign": lambda c, s: run_campaign(c, s, 5, 1),
}


@pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
@pytest.mark.parametrize("class_id", ["Ks", "Sc", None, 0], ids=repr)
def test_a_class_of_the_wrong_type_is_parameter_error(entry, class_id):
    # not an AttributeError from reading .value or .nested off it
    text = re.escape(f"class must be a ClassId, got {class_id!r}")
    with pytest.raises(ParameterError, match=f"^{text}$"):
        PAIR_ENTRY_POINTS[entry](class_id, lemniscate(0.5))


@pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
@pytest.mark.parametrize("spec", ["lemniscate", ("lemniscate", (0.5,)), None, [0.5]], ids=repr)
def test_a_spec_of_the_wrong_type_is_parameter_error(entry, spec):
    # not an AttributeError from reading .family, nor a TypeError from a cache key
    text = re.escape(f"spec must be a PhiSpec, got {spec!r}")
    with pytest.raises(ParameterError, match=f"^{text}$"):
        PAIR_ENTRY_POINTS[entry](ClassId.KS, spec)


@pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
@pytest.mark.parametrize("r", [-0.1, -1e-300, 1.0, math.nan], ids=repr)
def test_both_lhs_routes_take_one_radius_range(class_id, r):
    # the series curve has a value at r < 0 and QUADPACK an integral to r = 1,
    # but the class lhs is defined on 0 <= r < 1 only, so both routes refuse alike
    text = re.escape(f"lhs_at takes a real r with 0 <= r < 1, got {r!r}")
    for method in ("quadrature", "series"):
        with pytest.raises(ParameterError, match=f"^{text}$"):
            lhs_at(class_id, lemniscate(0.5), r, method)


@pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
def test_both_lhs_routes_read_zero_at_zero(class_id):
    # the solver's first grid search reads the lhs at r = 0
    assert [lhs_at(class_id, lemniscate(0.5), 0.0, m) for m in ("quadrature", "series")] == [0.0, 0.0]


def test_lhs_radius_converts():
    spec = strongly(0.5)
    for method in ("quadrature", "series"):
        assert lhs_at(ClassId.SC, spec, Fraction(1, 4), method) == lhs_at(ClassId.SC, spec, 0.25, method)
    assert distance_integral_at(ClassId.CS, spec, np.float32(0.25)) == distance_integral_at(ClassId.CS, spec, 0.25)


def test_min_max_check_takes_a_real_radius_and_a_count():
    spec = lemniscate(0.5)
    for r in ("0.3", True, None):
        with pytest.raises(ParameterError, match=r"^check_min_max_hypothesis needs 0 < r < 1, got "):
            check_min_max_hypothesis(spec, r)
    for samples in (2.5, "x", True):
        with pytest.raises(ParameterError, match="^circle samples must be an integer, got "):
            check_min_max_hypothesis(spec, 0.3, samples)
    assert check_min_max_hypothesis(spec, Fraction(3, 10), np.int64(10)) is check_min_max_hypothesis(spec, 0.3, 10)
