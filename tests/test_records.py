"""The package's records keep what frozen dataclasses gave them: their
fields, immutability, value equality and hashing (identity for
``TruncatedSeries``), a field repr, copies and pickles rebuilt through the
constructor, and their dict forms."""

import copy
import pickle

import numpy as np
import pytest

from bohrcc._record import Record
from bohrcc.catalog import FAMILIES, Family, PhiSpec, lemniscate
from bohrcc.errors import BudgetError, InconsistencyError, ParameterError
from bohrcc.extremal import ExtremalSet
from bohrcc.power_series import TruncatedSeries
from bohrcc.quadrature import QuadratureResult
from bohrcc.solver import (
    ClassId,
    RadiusResult,
    ThresholdRow,
    ThresholdScan,
    WitnessReport,
    sharpness_witness,
    solve_radius,
    threshold_scan,
)
from bohrcc.verifier import SampledFunction, SelfMap, VerificationReport, run_campaign

SPEC = lemniscate(0.5)
RESULT = solve_radius(ClassId.SC, SPEC)
SERIES = TruncatedSeries([1.0, 0.5])  # a series is equal only to itself, so the records share one


def _records():
    """One instance of each of the twelve records, made twice by the same calls."""
    return {
        "Family": FAMILIES["lemniscate"],
        "PhiSpec": PhiSpec("janowski", (1, -0.5)),
        "QuadratureResult": QuadratureResult(0.25, 1e-14, 21),
        "RadiusResult": RadiusResult(0.3, 0.3, True, 1e-12, (0.29, 0.31), "sharp"),
        "SelfMap": SelfMap(0.5, 2),
        "ExtremalSet": ExtremalSet(SERIES, SERIES, -0.5, -0.25),
        "WitnessReport": sharpness_witness(ClassId.SC, SPEC, RESULT),
        "ThresholdRow": ThresholdRow(0.2, 0.5, False),
        "ThresholdScan": threshold_scan("sc-lemniscate", [0.1, 0.2]),
        "SampledFunction": SampledFunction(ClassId.SC, SPEC, SelfMap(0.5, 2), SERIES, 0.4),
        "VerificationReport": run_campaign(ClassId.SC, SPEC, 3, 1),
    }


RECORDS = _records()
CHECKED = (PhiSpec, QuadratureResult, RadiusResult, SelfMap, TruncatedSeries)
VALUE = (Family, ExtremalSet, WitnessReport, ThresholdRow, ThresholdScan, SampledFunction, VerificationReport)


def test_the_twelve_records_are_slots_records_or_named_tuples():
    assert all(issubclass(cls, Record) for cls in CHECKED)
    assert not any(hasattr(r, "__dict__") for r in [*RECORDS.values(), TruncatedSeries([1.0])])
    assert all(issubclass(cls, tuple) and hasattr(cls, "_fields") for cls in VALUE)
    assert len({*CHECKED, *VALUE}) == 12


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment_and_deletion(name):
    record = RECORDS[name]
    field = (type(record)._fields if isinstance(record, tuple) else type(record).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_equal_and_hashed_by_value(name):
    # a report's witness is a dict, so a report is equal but unhashable; a
    # pickle makes new series, and a family's formulas are lambdas
    record, again = RECORDS[name], _records()[name]
    clones = [copy.copy(record)]
    if name not in ("Family", "ExtremalSet", "SampledFunction"):
        clones.append(pickle.loads(pickle.dumps(record)))
    assert record != object()
    for other in (again, *clones):
        assert other == record
        if name == "VerificationReport":
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(other)
        else:
            assert hash(other) == hash(record)


def test_checked_records_show_their_fields():
    assert repr(SPEC) == "PhiSpec(family='lemniscate', params=(0.5,))"
    assert repr(SelfMap(1.0)) == "SelfMap(epsilon=1.0, power=1)"
    assert repr(QuadratureResult(0.5, 0.0, 3)) == (
        "QuadratureResult(value=0.5, abs_error_estimate=0.0, evaluations=3)"
    )


def test_a_phi_spec_keys_by_value():
    assert SPEC == PhiSpec("lemniscate", [0.5]) and {SPEC: 1}[PhiSpec("lemniscate", (0.5,))] == 1
    assert hash(SPEC) == hash(("lemniscate", (0.5,))) and SPEC != ("lemniscate", (0.5,))
    assert SPEC != lemniscate(0.25) and SPEC != SelfMap(0.5)


def test_a_series_is_equal_only_to_itself():
    s = TruncatedSeries([1.0, 2.0])
    assert s == s and s != TruncatedSeries([1.0, 2.0]) and hash(s) == object.__hash__(s)
    assert not s.coeffs.flags.writeable
    assert pickle.loads(pickle.dumps(s)).coeffs.tolist() == [1.0, 2.0]


def test_a_copy_is_rebuilt_through_the_checks():
    assert pickle.loads(pickle.dumps(SelfMap(0.5, np.int64(3)))) == SelfMap(0.5, 3)
    assert type(copy.deepcopy(SPEC).params[0]) is float


def test_construction_errors():
    with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'params'"):
        PhiSpec("lemniscate")
    with pytest.raises(ParameterError, match="^unknown family 'nope'$"):
        PhiSpec("nope", ())
    with pytest.raises(BudgetError, match="^quadrature produced a non-finite value$"):
        QuadratureResult(float("inf"), 0.0, 1)
    with pytest.raises(InconsistencyError, match=r"^radius 1.5 outside \(0, 1\)$"):
        RadiusResult(1.5, 1 / 3, False, 0.0, (1.4, 1.6), "")
    with pytest.raises(InconsistencyError, match="^radius residual 1e-07 exceeds 1e-8$"):
        RadiusResult(0.5, 1 / 3, False, 1e-7, (0.4, 0.6), "")
    with pytest.raises(ParameterError, match="^self-map needs power >= 1, got 0$"):
        SelfMap(0.5, 0)


def test_dict_forms():
    assert RESULT.to_dict() == {
        "r_f": RESULT.r_f,
        "capped": RESULT.capped,
        "sharp": RESULT.sharp,
        "residual": RESULT.residual,
        "bracket": list(RESULT.bracket),
        "notes": RESULT.notes,
    }
    assert SelfMap(0.5, 2)._asdict() == {"epsilon": 0.5, "power": 2}
    assert ThresholdRow(0.2, 0.5, False)._asdict() == {"param": 0.2, "r_f": 0.5, "in_sharp_window": False}
    report = RECORDS["VerificationReport"]
    assert isinstance(report, VerificationReport)
    assert report.witness == RECORDS["WitnessReport"]._asdict()
    assert RECORDS["SampledFunction"]._fields == ("class_id", "spec", "omega", "series", "distance_bound")
    assert isinstance(RECORDS["SampledFunction"], SampledFunction)
