"""The argument checkers ``errors.as_int`` and ``errors.as_real``, and the
entry points that route their counts and real numbers through them.

A bool is an int to Python and a string or bytes holds digits, but none of
them is a count or a real parameter here: each raises the caller's
ParameterError.  numpy integers and floats and Fractions are numbers, and
are stored as the int or float they equal.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from bohrcc import power_series as ps
from bohrcc.catalog import PhiSpec, lemniscate
from bohrcc.errors import ParameterError, as_int, as_real
from bohrcc.quadrature import check_tol
from bohrcc.solver import ClassId, threshold_scan
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
