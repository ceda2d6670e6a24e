"""Truncated Taylor series about 0 with exact recurrence arithmetic.

A series is stored as a plain vector of real coefficients (``coeffs[n]``
multiplies ``z**n``); an :func:`evaluator` keeps them reversed, highest
degree first as Horner's rule reads them, so evaluating copies nothing.
All operations are pure functions returning new series; arrays are frozen
after construction so values can be shared freely between threads.

The one non-obvious operation is :func:`majorant`, which replaces every
coefficient by its absolute value.  Evaluating the majorant of ``f`` at a
radius ``r`` gives the coefficient-modulus sum ``sum |a_n| r^n`` that all
the radius computations in this package are built on.

The exp recurrence is derivative-based (not term-by-term powers), which
keeps it exact up to the truncation order; for a series with nonnegative
coefficients it adds only nonnegative terms, so nothing cancels.
"""

from __future__ import annotations

from typing import Callable

from ._lazy import lazy_import
from ._record import Record, store
from .errors import DomainError, ParameterError, PrecisionError, as_int

np = lazy_import("numpy")

#: Default truncation order (number of stored coefficients).  Radius work
#: happens at r <= 1/3 where geometric tail decay makes 64 coefficients
#: give tails far below double-precision noise for every catalog family.
DEFAULT_ORDER = 64

#: Largest order :func:`as_order` admits.  A campaign at order N builds an
#: N x N kernel matrix, so 4096 is a 134 MB matrix where 20,000 would be 3.2 GB.
MAX_ORDER = 4096


def as_order(order, minimum: int = 1) -> int:
    """A series order as an int, rejecting (not truncating) a float or a bool,
    and rejecting an order below ``minimum`` or above :data:`MAX_ORDER`."""
    order = as_int(order, f"order must be an integer, got {order!r}")
    if order < minimum:
        want = f"at least {minimum}, got {order}" if minimum > 1 else "positive"
        raise ParameterError(f"order must be {want}")
    if order > MAX_ORDER:
        raise ParameterError(f"order must be at most {MAX_ORDER}, got {order}")
    return order


class TruncatedSeries(Record):
    """Real coefficient vector of a Taylor series about 0, copied into a
    read-only array when made.  Equal only to itself and hashed by
    identity, as an array has no one truth value.

    ``evaluator(s, tail_tol)`` checks a heuristic bound on the discarded tail.
    """

    __slots__ = ("coeffs",)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, coeffs: np.ndarray):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("series needs a nonempty 1-D coefficient vector")
        if not np.all(np.isfinite(arr)):
            raise DomainError("series coefficients must all be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        store(self, "coeffs", arr)

    @property
    def order(self) -> int:
        """Number of stored coefficients (degrees 0 .. order-1)."""
        return self.coeffs.size

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:6])
        more = ", ..." if self.order > 6 else ""
        return f"TruncatedSeries([{head}{more}], order={self.order})"


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the shorter operand's order."""
    n = min(a.order, b.order)
    return TruncatedSeries(np.convolve(a.coeffs, b.coeffs)[:n])


def majorant(s: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise absolute value."""
    return TruncatedSeries(np.abs(s.coeffs))


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term.

    Uses the derivative recurrence E' = s'E, i.e.
    ``(n+1) E_{n+1} = sum_{k=0..n} (k+1) s_{k+1} E_{n-k}``,
    which is exact to the truncation order.  The coefficients are written
    into a reversed buffer, so each step's dot product reads two
    contiguous slices.
    """
    if s.coeffs[0] != 0.0:
        raise DomainError("exp_series requires a zero constant term")
    n = s.order
    weighted = s.coeffs * np.arange(n)  # k * s_k
    rev = np.zeros(n)  # rev[n-1-j] = E_j
    rev[n - 1] = 1.0
    for m in range(1, n):
        # m * E_m = sum_{k=1..m} k s_k E_{m-k}, with E_{m-1} .. E_0 = rev[n-m:]
        rev[n - 1 - m] = np.dot(weighted[1 : m + 1], rev[n - m :]) / m
    return TruncatedSeries(rev[::-1])


def _tail_hint(last: float, n: int, r: float) -> float:
    """``last r^n / (1 - r)`` for 0 <= r < 1, exactly 0 at r = 0."""
    if r == 0.0:
        return 0.0
    return last * r**n / (1.0 - r)


def _horner(top, rest, x):
    """Horner's rule from ``top`` down through ``rest`` (highest degree
    first) in numpy ``polyval``'s operation order: bit-identical to
    ``polyval(x, [*reversed(rest), top])`` for a float or array x."""
    t = top + x * 0
    for a in rest:
        t = a + t * x
    return t


def evaluator(s: TruncatedSeries, tail_tol: float | None = None) -> Callable[[float], float]:
    """Horner evaluation of the stored coefficients at |x| < 1, bit-identical
    to numpy's ``polyval``, as one function of x, with the coefficient list
    reversed and the tail's leading coefficient read off s once; with
    ``tail_tol`` given, a :class:`PrecisionError` when the geometric tail
    heuristic at the radius |x| exceeds it."""
    c = s.coeffs.tolist()
    last, n = abs(c[-1]), s.order
    top, *rest = c[::-1]

    def at(x: float) -> float:
        x = float(x)
        if not abs(x) < 1.0:  # NaN fails it too
            raise DomainError(f"series evaluation requires |x| < 1, got {x}")
        if tail_tol is not None:
            hint = _tail_hint(last, n, abs(x))
            if hint > tail_tol:
                raise PrecisionError(
                    f"truncation tail ~{hint:.3g} exceeds tolerance {tail_tol:.3g} at r={abs(x):.6g}"
                )
        return _horner(top, rest, x)

    return at
