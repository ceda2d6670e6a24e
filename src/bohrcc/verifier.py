"""Build explicit class members and verify the coefficient bound on them.

Members are constructed directly from the defining identities with a
sampled disk self-map w(z) = eps * z^m (0 <= eps <= 1, m >= 1): writing
p = phi o w, a member is f = T(K p), with the class kernel K of
``solver.kernel_series`` (1/(1-z^2) for Ks, k' for Sc and Cc, K' for Cs)
and the class transform T of ``ClassId.transform``, one integration or
the nested integral_0^z (1/x) integral_0^x.

Monomial self-maps keep the series composition exact while still sweeping
the subordination family; with the identity map the Sc construction
reproduces the extremal h itself.  A campaign checks, for every sample,
that the coefficient-modulus sum at the computed radius stays below the
class's distance bound.  The radius theorems guarantee this, so any
failure is an implementation bug and is reported loudly.

A campaign with seed s draws its self-maps from one numpy stream,
``rng = np.random.default_rng(s)``.  Sample 0 is the identity map; sample
i >= 1 reads the stream's doubles 2i-2 and 2i-1 as u0 and u1 and takes
epsilon = u0 and power = 1 + floor(8 u1), uniform on 1..8.  Each block of
members draws its own rows of (u0, u1) pairs, so the draws, and with them
the report bytes, do not depend on the block size.

A campaign builds its members as one batch, in blocks of 4096 members
when it has more.  phi, the class kernel and the target are computed
once.  Row i of an n x N matrix holds phi o w_i by re-indexing, as a
monomial map composes: one scatter writes phi_k eps_i^k to column k m_i
of every row i with power m_i.  One matrix product with the kernel's
Toeplitz matrix, copied at once from strided windows over the kernel
behind N - 1 zeros, then gives every row's product with the kernel, and
T is applied to the whole matrix.  Every row's coefficient-modulus sum is
one elementwise product with r^n and one row sum.  The product sums each
coefficient in another order than ``power_series.mul``, so a row agrees
with the member built series by series within the rounding bound
2 gamma_N (|kernel| * |phi o w|) of two N-term dot products, not bit for
bit.  Within the batch code every row is computed alike whatever the
block size: a one-row block gets a zero second row, so BLAS takes the
same matrix-matrix path for it as for any other block.
:func:`sample_member` and :func:`check_bohr` are that one-row case, so
they equal the batch row and margin bit for bit, report bytes do not
depend on the block size, and a failing batch raises the error that the
first failing sample would raise on its own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import power_series as ps
from ._record import Record, store
from .catalog import PhiSpec, phi_series
from .errors import DomainError, InconsistencyError, ParameterError, PrecisionError, as_int, as_real
from .quadrature import DEFAULT_TOL
from .solver import (
    ClassId,
    RadiusResult,
    kernel_series,
    sharpness_witness,
    solve_radius,
    target_constant,
)

_MARGIN_SLACK = 1e-9
_TAIL_GUARD = 1e-10
_BLOCK_ROWS = 4096  # members per coefficient matrix, so a large campaign stays within a few MB
_RADIUS_TEXT = "the radius to check must satisfy 0 < r < 1, got {!r}"


class SelfMap(Record):
    """Monomial disk self-map w(z) = epsilon * z^power fixing 0, stored as a
    float epsilon in [0, 1] and an int power >= 1."""

    __slots__ = ("epsilon", "power")

    def __init__(self, epsilon: float, power: int = 1):
        what = f"self-map needs a real 0 <= epsilon <= 1, got {epsilon!r}"
        eps = as_real(epsilon, what)
        if not (0.0 <= eps <= 1.0):
            raise ParameterError(what)
        power = as_int(power, f"self-map needs an integer power, got {power!r}")
        if power < 1:
            raise ParameterError(f"self-map needs power >= 1, got {power}")
        store(self, "epsilon", eps)
        store(self, "power", power)


class SampledFunction(NamedTuple):
    """A constructed class member with its class distance bound."""

    class_id: ClassId
    spec: PhiSpec
    omega: SelfMap
    series: ps.TruncatedSeries
    distance_bound: float


def _composed(phi: np.ndarray, eps: np.ndarray, powers: np.ndarray, order: int) -> np.ndarray:
    """Rows phi o w for w = eps[i] * z^powers[i], written in one scatter:
    row i holds phi_k eps[i]^k at column k powers[i]."""
    # a one-row product would go to gemv, whose sums round unlike gemm's rows
    composed = np.zeros((max(len(eps), 2), order))
    composed[: len(eps), 0] = phi[0]  # a row whose w vanishes to this order keeps only phi(0)
    rows = np.flatnonzero((eps != 0.0) & (powers < order))
    steps = powers[rows]
    counts = (order - 1) // steps + 1  # row i takes k = 0 .. counts[i] - 1
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    at = np.repeat(rows * order, counts) + k * np.repeat(steps, counts)  # flat index of (i, k powers[i])
    composed.ravel()[at] = phi[k] * np.repeat(eps[rows], counts) ** k
    return composed


def _toeplitz(kernel: np.ndarray) -> np.ndarray:
    """The matrix T[j, n] = kernel[n - j], 0 for n < j, as a C-contiguous copy
    of the windows over the kernel padded with len - 1 zeros: row j is the
    window from len - 1 - j, a strided view that steps one element back per
    row (``sliding_window_view(padded, len)[::-1]``, without its checks)."""
    n, step = kernel.size, kernel.itemsize
    padded = np.concatenate((np.zeros(n - 1), kernel))
    return np.lib.stride_tricks.as_strided(padded[n - 1 :], (n, n), (-step, step)).copy()


def _members(
    class_id: ClassId, spec: PhiSpec, eps: np.ndarray, powers: np.ndarray, order: int
) -> np.ndarray:
    """Coefficient rows of the class members built from phi o w, one per
    self-map w = eps[i] * z^powers[i].

    The composed rows are multiplied in one product by the kernel's
    Toeplitz matrix, and T takes the product to N + 1 coefficients.  The
    product agrees with the series-by-series construction within the
    rounding of its dot products, and a row does not depend on how many
    rows share it.  The composed rows are freed with the product."""
    order = ps.as_order(order)
    phi = phi_series(spec, order).coeffs
    kernel = kernel_series(class_id, spec, order).coeffs
    return class_id.transform((_composed(phi, eps, powers, order) @ _toeplitz(kernel))[: len(eps)])


def _first_unbuilt(members: np.ndarray) -> int:
    """Index of the first row that is not finite or not normalized
    (f(0) = 0, f'(0) = 1), or the number of rows when every row is built."""
    built = np.isfinite(members).all(axis=1)
    built &= (np.abs(members[:, 0]) <= 1e-14) & (np.abs(members[:, 1] - 1.0) <= 1e-12)
    return len(built) if built.all() else int(np.argmin(built))


def _unbuilt_error(row: np.ndarray) -> Exception:
    if not np.isfinite(row).all():
        return DomainError("series coefficients must all be finite")
    return InconsistencyError(f"sampled member is not normalized: f(0)={row[0]}, f'(0)={row[1]}")


def _margins(members: np.ndarray, target: float, r: float) -> np.ndarray:
    """target - sum |a_n| r^n for every row, after the tail guard
    ``power_series._tail_hint`` on each row's last coefficient."""
    if not (0.0 < r < 1.0):
        raise ParameterError(_RADIUS_TEXT.format(r))
    majorants = np.abs(members)
    hints = ps._tail_hint(majorants[:, -1], members.shape[1], r)
    over = np.flatnonzero(hints > _TAIL_GUARD)
    if over.size:
        raise PrecisionError(
            f"truncation tail ~{hints[over[0]]:.3g} exceeds tolerance {_TAIL_GUARD:.3g} at r={r:.6g}"
        )
    return target - (majorants * r ** np.arange(members.shape[1])).sum(axis=1)


def sample_member(
    class_id: ClassId,
    spec: PhiSpec,
    omega: SelfMap,
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> SampledFunction:
    """Build one class member from the defining identity."""
    members = _members(class_id, spec, np.array([omega.epsilon]), np.array([omega.power]), order)
    if _first_unbuilt(members) == 0:
        raise _unbuilt_error(members[0])
    bound = target_constant(class_id, spec, order, tol)
    return SampledFunction(class_id, spec, omega, ps.TruncatedSeries(members[0]), bound)


def check_bohr(sf: SampledFunction, r: float) -> tuple[bool, float]:
    """Margin of the coefficient bound at radius r.

    Returns (holds, margin) with margin = bound - sum |a_n| r^n; raises
    PrecisionError when the truncation tail at r is above 1e-10.
    """
    r = as_real(r, _RADIUS_TEXT.format(r))
    margin = float(_margins(sf.series.coeffs[None, :], sf.distance_bound, r)[0])
    return (margin >= -_MARGIN_SLACK, margin)


class VerificationReport(NamedTuple):
    """Campaign outcome; identical seeds produce identical JSON bytes."""

    class_id: ClassId
    spec: PhiSpec
    seed: int
    n: int
    r_checked: float
    min_margin: float
    failures: tuple[dict, ...]
    witness: dict | None
    radius: RadiusResult

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_id.value,
            "spec": {"family": self.spec.family, "params": self.spec.param_dict()},
            "seed": self.seed,
            "n": self.n,
            "r_checked": self.r_checked,
            "min_margin": self.min_margin,
            "failures": list(self.failures),
            "witness": self.witness,
            "radius": self.radius.to_dict(),
        }


def run_campaign(
    class_id: ClassId,
    spec: PhiSpec,
    n_samples: int,
    seed: int,
    r: float | None = None,
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Check the coefficient bound on n sampled members at the computed
    (or overridden) radius.

    Sample 0 is always the identity self-map, which for Sc reproduces the
    extremal member; samples 1.. are monomial maps drawn in order from one
    ``np.random.default_rng(seed)`` stream, so reports are deterministic
    given the seed.
    """
    what = f"need integer n_samples and seed, got {n_samples!r}, {seed!r}"
    n_samples, seed = as_int(n_samples, what), as_int(seed, what)
    if n_samples < 1:
        raise ParameterError(f"need at least one sample, got {n_samples}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    result = solve_radius(class_id, spec, order, tol)
    # a real r is range-checked with the margins, after the members before it are built
    r_checked = result.capped if r is None else as_real(r, _RADIUS_TEXT.format(r))
    rng = np.random.default_rng(seed)
    margins: list[float] = []
    failures = []
    for start in range(0, n_samples, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_samples)
        u = rng.random((stop - max(start, 1), 2))
        if start == 0:  # sample 0 is the identity map: u = (1, 0) gives epsilon 1, power 1
            u = np.vstack(([1.0, 0.0], u))
        eps, powers = u[:, 0], 1 + (8.0 * u[:, 1]).astype(np.int64)
        members = _members(class_id, spec, eps, powers, order)
        n_built = _first_unbuilt(members)
        if n_built:  # the rows before the first unbuilt one are checked first, as one by one
            block = _margins(members[:n_built], target_constant(class_id, spec, order, tol), r_checked)
            margins += block.tolist()
            failures += [
                {"index": i, "epsilon": e, "power": m, "margin": margin}
                for i, e, m, margin in zip(
                    range(start, stop), eps.tolist(), powers.tolist(), block.tolist()
                )
                if not margin >= -_MARGIN_SLACK
            ]
        if n_built < len(eps):
            raise _unbuilt_error(members[n_built])
    witness = None
    if result.sharp:
        witness = sharpness_witness(class_id, spec, result)._asdict()
    return VerificationReport(
        class_id=class_id,
        spec=spec,
        seed=int(seed),
        n=int(n_samples),
        r_checked=r_checked,
        min_margin=float(min(margins)),
        failures=tuple(failures),
        witness=witness,
        radius=result,
    )
