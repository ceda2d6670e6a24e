"""Which of the paper's printed digits are wrong.

``bohrcc table 1..4`` prints a diff column: bohrcc's value truncated to
the reference's decimals (``reference.truncate_to``), minus the
reference.  It is non-zero in 24 of the 66 reference cells.  Each such
cell is one of two kinds, told apart by a 30-digit mpmath value v that
reads none of bohrcc's numerics:

* rounding: the paper rounded v where bohrcc truncates, so the reference
  is v rounded half-even to its decimals, one unit above the truncation;
* paper error: the reference is neither the truncation nor the rounding
  of v.

v is the root of h(r) = -h(-1) from ``oracle.sc_root`` for tables 1 and 4;
for table 2, h from the expblend growth series (1 - alpha) sum x^n/(n n!);
for table 3, h from ``mp.quad`` of the strongly growth integrand
(phi(t) - 1)/t.  The README lists the paper errors with these values.
"""

from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal
from pathlib import Path

import oracle
import pytest
from mpmath import mp, mpf
from test_certified_tables import _printed

from bohrcc import reference
from bohrcc.catalog import janowski, lemniscate

#: (table, printed row parameters, column) of each non-zero diff cell -> v to
#: 10 significant digits where the paper errs, None where it rounded
CELLS = {
    (1, "0.2", "r_f"): None,
    (1, "0.65", "r_f"): None,
    (1, "0.7", "r_f"): None,
    (1, "0.707106781", "r_f"): "0.2244289479",  # the paper's 0.22443096 is the root at s = 0.7071
    (2, "0.02", "h_one_third"): "0.4758874681",
    (2, "0.02", "neg_h_minus_one"): "0.4581000782",
    (2, "0.03", "h_one_third"): "0.4741616843",
    (2, "0.04", "h_one_third"): "0.4724421589",
    (2, "0.05", "h_one_third"): None,
    (2, "0.06", "h_one_third"): None,
    (2, "0.07", "h_one_third"): "0.4673209072",
    (2, "0.07", "neg_h_minus_one"): "0.4767144392",
    (3, "0.4", "h_one_third"): "0.4453713288",
    (3, "0.45", "h_one_third"): "0.4631701474",
    (3, "0.8", "neg_h_minus_one"): "0.2986201018",
    (4, "1,-0.2", "r_f"): None,
    (4, "1,-0.4", "r_f"): None,
    (4, "1,-0.5", "r_f"): None,
    (4, "1,-0.6", "r_f"): None,
    (4, "1,-0.7", "r_f"): None,
    (4, "0.5,-0.1", "r_f"): None,
    (4, "0.5,-0.4", "r_f"): None,
    (4, "0.5,-0.9", "r_f"): None,
    (4, "0.5,-1", "r_f"): None,
}

#: each table's reference rows, its printed parameter columns and its value columns
TABLES = {
    1: (reference.TABLE1, ["s"], ["r_f"]),
    2: (reference.TABLE2, ["alpha"], ["h_one_third", "neg_h_minus_one"]),
    3: (reference.TABLE3, ["alpha"], ["h_one_third", "neg_h_minus_one"]),
    4: (reference.TABLE4, ["A", "B"], ["r_f"]),
}


def _nonzero_cells() -> dict:
    """(table, row, column) -> (the row's parameters, the printed reference,
    bohrcc's printed value) for every cell whose printed diff is not zero."""
    out = {}
    for table, (rows, names, columns) in TABLES.items():
        for ref_row, printed in zip(rows, _printed(table), strict=True):
            key = ",".join(printed[n] for n in names)
            for column in columns:
                ref, diff = ("reference", "diff") if column == "r_f" else (f"{column}_ref", f"{column}_diff")
                if float(printed[diff]) != 0.0:
                    out[table, key, column] = (ref_row[: len(names)], printed[ref], printed[column])
    return out


def _expblend_growth(alpha, x):
    term, total = mpf(1), mpf(0)
    for n in range(1, 60):  # the terms fall below 1e-80 by n = 60
        term *= x / n
        total += term / n
    return (1 - mpf(alpha)) * total


def _strongly_growth(alpha, x):
    return mp.quad(lambda t: (((1 + t) / (1 - t)) ** mpf(alpha) - 1) / t, [0, x])


def _value(table: int, params: tuple, column: str):
    """v, the 30-digit value of one cell."""
    with mp.workdps(30):
        if table in (1, 4):
            return oracle.sc_root(lemniscate(*params) if table == 1 else janowski(*params))
        x = mpf(1) / 3 if column == "h_one_third" else mpf(-1)
        growth = _expblend_growth if table == 2 else _strongly_growth
        h = x * mp.exp(growth(params[0], x))
        return h if column == "h_one_third" else -h


def _kind(v, ref: str) -> str:
    digits = Decimal(mp.nstr(v, 25))
    places = Decimal(1).scaleb(-reference.decimals(ref))
    if digits.quantize(places, ROUND_DOWN) == Decimal(ref):
        return "truncation"
    if digits.quantize(places, ROUND_HALF_EVEN) == Decimal(ref):
        return "rounding"
    return "paper error"


@pytest.fixture(scope="module")
def cells():
    return _nonzero_cells()


def test_the_table_names_every_nonzero_diff_cell(cells):
    assert sorted(cells) == sorted(CELLS)
    assert len(CELLS) == 24
    assert sum(v is None for v in CELLS.values()) == 14


def test_each_cell_is_a_rounding_or_a_paper_error(cells):
    for key, (params, ref, printed) in cells.items():
        v = _value(key[0], params, key[2])
        true = CELLS[key]
        assert _kind(v, ref) == ("rounding" if true is None else "paper error"), (key, ref, v)
        assert printed == mp.nstr(v, 9), (key, printed, v)  # bohrcc prints every digit right
        if true is not None:
            assert mp.nstr(v, 10) == true, (key, v)


def test_the_readme_lists_the_paper_errors():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    errors = [v for v in CELLS.values() if v is not None]
    assert len(errors) == 10
    assert all(v in readme for v in errors)
