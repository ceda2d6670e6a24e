"""Every r_f that ``bohrcc table 1`` and ``table 4`` print is certified.

Both tables solve the Sc corollary h(r) = -h(-1) for a phi with
nonnegative coefficients, where h(x) = x exp(integral_0^x (phi(t)-1)/t dt)
increases on [0, 1):

    lemniscate(s)      h(x) = x exp(2 s x + s^2 x^2 / 2)
    janowski(A, B<0)   h(x) = x (1 + B x)^((A - B)/B)

Here h is written afresh in ``mpmath.iv`` interval arithmetic at 30 digits,
from the table's own double parameters.  Bisection keeps a bracket [lo, hi]
whose sides are certified, h(lo) < -h(-1) < h(hi), so the root lies in it;
it stops once the bracket lies inside the rounding cell of the printed
9-digit value, which is then the rounding of every point of the enclosure.
"""

import contextlib
import csv
import io
from decimal import Decimal

import pytest
from mpmath import iv

from bohrcc import cli, reference

_START = 0.9  # above every root of both tables, below janowski's pole at 1
_MIN_WIDTH = 1e-25  # finer than the 30-digit evaluations can separate


def _lemniscate(s):
    s = iv.mpf(s)
    return lambda x: x * iv.exp(2 * s * x + s * s * x * x / 2)


def _janowski(a, b):
    a, b = iv.mpf(a), iv.mpf(b)
    p = (a - b) / b
    return lambda x: x * iv.exp(p * iv.log(1 + b * x))


def _printed(table: int) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["table", str(table)]) == 0
    return list(csv.DictReader(io.StringIO(out.getvalue())))


def _cell(printed: str):
    """The interval of reals that round to ``printed`` at its 9 significant digits."""
    half = Decimal(5).scaleb(Decimal(printed).adjusted() - 9)
    return iv.mpf(str(Decimal(printed) - half)), iv.mpf(str(Decimal(printed) + half))


def _certify(h, printed: str):
    """Bisect h(r) = -h(-1) on [0, _START] until the certified bracket lies
    inside the rounding cell of ``printed``; the bracket, or None if it
    straddles the cell's edge when the evaluations can no longer decide."""
    target = -h(iv.mpf(-1))
    lo, hi = iv.mpf(0), iv.mpf(_START)
    assert h(hi).a > target.b
    cell_lo, cell_hi = _cell(printed)
    while not (cell_lo.b < lo and hi < cell_hi.a):
        if hi - lo < _MIN_WIDTH:
            return None
        mid = (lo + hi) / 2  # exact: a dyadic point far above the working precision
        value = h(mid)
        if value.b < target.a:
            lo = mid
        elif value.a > target.b:
            hi = mid
        else:
            return None
    return lo, hi


@pytest.mark.parametrize(
    "table, make_h, names, params",
    [
        (1, _lemniscate, ["s"], [row[:1] for row in reference.TABLE1]),
        (4, _janowski, ["A", "B"], [row[:2] for row in reference.TABLE4]),
    ],
    ids=["table1", "table4"],
)
def test_every_printed_radius_is_the_rounding_of_its_enclosure(table, make_h, names, params, monkeypatch):
    monkeypatch.setattr(iv, "dps", 30)
    rows = _printed(table)
    assert len(rows) == len(params)
    for row, p in zip(rows, params):
        assert [row[n] for n in names] == [format(v, ".9g") for v in p]
        enclosure = _certify(make_h(*p), row["r_f"])
        assert enclosure is not None, (p, row["r_f"])
