"""Build explicit class members and verify the coefficient bound on them.

Members are constructed directly from the defining identities with a
sampled disk self-map w(z) = eps * z^m (0 <= eps <= 1, m >= 1): writing
p = phi o w,

  Ks:  f = integral_0^z G(x) p(x) / x dx     with G(z) = z/(1-z^2)
  Sc:  f = integral_0^z h(x) p(x) / x dx
  Cc:  f = integral_0^z (1/x) integral_0^x k'(y) p(y) dy dx
  Cs:  f = integral_0^z (1/x) integral_0^x K'(y) p(y) dy dx

Monomial self-maps keep the series composition exact while still sweeping
the subordination family; with the identity map the Sc construction
reproduces the extremal h itself.  A campaign checks, for every sample,
that the coefficient-modulus sum at the computed radius stays below the
class's distance bound.  The radius theorems guarantee this, so any
failure is an implementation bug and is reported loudly.

Sample i >= 1 of a campaign with seed s draws its self-map from numpy's
stream ``Generator(PCG64(SeedSequence((s, i))))``: epsilon is the first
``random()`` and the power the first ``integers(1, 9)``.  SeedSequence and
PCG64 are fixed algorithms whose streams numpy keeps stable across
versions (NEP 19), so a block's draws are computed directly, without
building those objects: SeedSequence's entropy hashing runs once per block
on uint32 columns (its hash constants depend only on the number of
entropy words, never on their values), and the two PCG64 outputs each
sample needs are stepped with Python ints.  The tests compare every draw
with numpy's own generator.

A campaign builds its members as one batch, in blocks of 4096 members
when it has more.  phi, the class kernel (z/(1-z^2), k' or K') and the
target are computed once.  Row i of an n x N matrix holds phi o w_i by the
monomial re-indexing of ``power_series.compose_with_selfmap``, filled for
all rows of one power at once, each row is convolved with the kernel as
``power_series.mul`` does, and the class's termwise integration is applied
to the whole matrix.  One Horner pass over the columns then gives every
row's coefficient-modulus sum.  Each step repeats the scalar operations
of the series functions in the same order, so every row and margin is
bit-identical to building and checking that member on its own.
:func:`sample_member` and :func:`check_bohr` are the one-row case of the
same code, and a failing batch raises the error that the first failing
sample would raise on its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import power_series as ps
from .catalog import PhiSpec, phi_series
from .errors import DomainError, InconsistencyError, ParameterError, PrecisionError
from .extremal import build_extremal
from .quadrature import DEFAULT_TOL
from .solver import (
    ClassId,
    RadiusResult,
    sharpness_witness,
    solve_radius,
    target_constant,
)

_MARGIN_SLACK = 1e-9
_TAIL_GUARD = 1e-10
_BLOCK_ROWS = 4096  # members per coefficient matrix, so a large campaign stays within a few MB


@dataclass(frozen=True)
class SelfMap:
    """Monomial disk self-map w(z) = epsilon * z^power fixing 0."""

    epsilon: float
    power: int = 1

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 1.0):
            raise ParameterError(f"self-map needs 0 <= epsilon <= 1, got {self.epsilon}")
        if self.power < 1:
            raise ParameterError(f"self-map needs power >= 1, got {self.power}")

    def to_series(self, order: int) -> ps.TruncatedSeries:
        return ps.monomial(self.epsilon, self.power, order)


IDENTITY_MAP = SelfMap(1.0, 1)


@dataclass(frozen=True)
class SampledFunction:
    """A constructed class member with its class distance bound."""

    class_id: ClassId
    spec: PhiSpec
    omega: SelfMap
    series: ps.TruncatedSeries
    distance_bound: float


def _members(class_id: ClassId, spec: PhiSpec, omegas: Sequence[SelfMap], order: int) -> np.ndarray:
    """Coefficient rows of the class members built from phi o w, one per
    self-map w, bit-identical to the series-by-series construction."""
    order = int(order)
    phi = phi_series(spec, order).coeffs
    if class_id is ClassId.KS:
        kernel = np.zeros(order)
        kernel[1::2] = 1.0  # z/(1-z^2), the odd starlike envelope
    else:
        es = build_extremal(spec, order)
        kernel = (es.K_prime if class_id is ClassId.CS else es.k_prime).coeffs
    eps = np.array([omega.epsilon for omega in omegas], dtype=np.float64)
    powers = np.array([omega.power for omega in omegas])
    composed = np.zeros((len(omegas), order))
    composed[:, 0] = phi[0]  # a row whose w vanishes to this order keeps only phi(0)
    live = (eps != 0.0) & (powers < order)
    for m in np.unique(powers[live]).tolist():
        rows = np.flatnonzero(live & (powers == m))
        k_max = (order - 1) // m
        composed[rows, ::m] = phi[: k_max + 1] * eps[rows, None] ** np.arange(k_max + 1)
    products = np.empty((len(omegas), order))
    for row, terms in zip(products, composed):
        row[:] = np.convolve(kernel, terms)[:order]
    weights = np.arange(1, order + 1)
    if class_id is ClassId.KS:
        # divide by z, then integrate; an order-1 quotient keeps one zero coefficient
        members = np.zeros((len(omegas), max(order, 2)))
        members[:, 1:order] = products[:, 1:] / weights[:-1]
    else:
        members = np.zeros((len(omegas), order + 1))
        members[:, 1:] = products / weights
        if class_id is not ClassId.SC:  # the nested transform weights c_n by 1/(n+1)^2
            members[:, 1:] /= weights
    return members


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
    """target - sum |a_n| r^n for every row, after the tail guard of
    ``power_series.eval_at`` on each row in turn."""
    if not (0.0 < r < 1.0):
        raise ParameterError(f"check_bohr needs 0 < r < 1, got {r}")
    r = float(r)
    majorants = np.abs(members)
    hints = majorants[:, -1] * r ** members.shape[1] / (1.0 - r)
    over = np.flatnonzero(hints > _TAIL_GUARD)
    if over.size:
        raise PrecisionError(
            f"truncation tail ~{hints[over[0]]:.3g} exceeds tolerance {_TAIL_GUARD:.3g} at r={r:.6g}"
        )
    return target - ps._horner(list(majorants.T), r)


def sample_member(
    class_id: ClassId,
    spec: PhiSpec,
    omega: SelfMap,
    order: int = ps.DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> SampledFunction:
    """Build one class member from the defining identity."""
    members = _members(class_id, spec, [omega], order)
    if _first_unbuilt(members) == 0:
        raise _unbuilt_error(members[0])
    bound = target_constant(class_id, spec, order, tol)
    return SampledFunction(class_id, spec, omega, ps.TruncatedSeries(members[0]), bound)


def check_bohr(sf: SampledFunction, r: float) -> tuple[bool, float]:
    """Margin of the coefficient bound at radius r.

    Returns (holds, margin) with margin = bound - sum |a_n| r^n; raises
    PrecisionError when the truncation tail at r is above 1e-10.
    """
    margin = float(_margins(sf.series.coeffs[None, :], sf.distance_bound, r)[0])
    return (margin >= -_MARGIN_SLACK, margin)


def check_subordination_lemma(
    f: ps.TruncatedSeries, omega: SelfMap, r_grid: Sequence[float]
) -> bool:
    """Majorant comparison for q = f o omega: sum |q_n| r^n stays below
    sum |f_n| r^n on a grid of radii at or below 1/3."""
    grid = [float(r) for r in r_grid]
    if not grid or any(not (0.0 < r <= 1.0 / 3.0) for r in grid):
        raise ParameterError("r_grid must lie in (0, 1/3]")
    q = ps.compose_with_selfmap(f, omega.to_series(f.order))
    mf, mq = ps.majorant(f), ps.majorant(q)
    return all(ps.eval_at(mq, r) <= ps.eval_at(mf, r) + 1e-10 for r in grid)


@dataclass(frozen=True)
class VerificationReport:
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# numpy's SeedSequence hash constants and the PCG64 multiplier
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_WORDS = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words, low first, that SeedSequence reads from an int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 columns; its constant advances
    on every call, the same for every row."""
    state = [const]

    def hashmix(value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(state[0])
        state[0] = state[0] * mult & _MASK32
        value = value * np.uint32(state[0])
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> np.uint32(16))


def _seed_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """(initstate, initseq) of ``PCG64(SeedSequence(words))`` for each row of
    an (n, words) uint32 entropy matrix: mix_entropy into a 4-word pool,
    then generate_state(4, uint64), one column operation at a time."""
    n, width = entropy.shape
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, j] if j < width else zero) for j in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, width):
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[j % _POOL_WORDS]).astype(np.uint64) for j in range(8)]
    # little-endian pairs of words give 4 uint64, read as two 128-bit values
    w = [(words[2 * j] | words[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    return [(s0 << 64 | s1, q0 << 64 | q1) for s0, s1, q0, q1 in zip(*w)]


def _xsl_rr(state: int) -> int:
    x = ((state >> 64) ^ state) & _MASK64
    rot = state >> 122
    return (x >> rot | x << (64 - rot)) & _MASK64


def _draw_maps(seed: int, indices: Sequence[int]) -> list[SelfMap]:
    """``SelfMap(rng.random(), rng.integers(1, 9))`` with
    ``rng = Generator(PCG64(SeedSequence((seed, i))))`` for every index i,
    computed without building any of those objects."""
    seed_words = _uint32_words(seed)
    entropy = [seed_words + _uint32_words(i) for i in indices]
    maps: list = [None] * len(entropy)
    # the hash constants depend on the number of entropy words only
    for width in sorted({len(words) for words in entropy}):
        rows = [pos for pos, words in enumerate(entropy) if len(words) == width]
        states = _seed_states(np.array([entropy[pos] for pos in rows], dtype=np.uint32))
        for pos, (initstate, initseq) in zip(rows, states):
            inc = (initseq << 1 | 1) & _MASK128
            state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
            state = (state * _PCG_MULT + inc) & _MASK128
            first = _xsl_rr(state)
            state = (state * _PCG_MULT + inc) & _MASK128
            second = _xsl_rr(state)
            # random() keeps the top 53 bits; integers(1, 9) is Lemire's
            # method on the low 32 bits, whose threshold for range 8 is 0
            maps[pos] = SelfMap((first >> 11) * 2.0**-53, 1 + ((second & _MASK32) >> 29))
    return maps


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
    extremal member; samples 1.. are seeded monomial maps with per-sample
    substreams, so reports are deterministic given the seed.
    """
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    result = solve_radius(class_id, spec, order, tol)
    r_checked = float(r) if r is not None else result.capped
    margins: list[float] = []
    failures = []
    for start in range(0, n_samples, _BLOCK_ROWS):
        indices = range(start, min(start + _BLOCK_ROWS, n_samples))
        omegas = _draw_maps(seed, indices[1:] if start == 0 else indices)
        if start == 0:
            omegas.insert(0, IDENTITY_MAP)
        members = _members(class_id, spec, omegas, order)
        n_built = _first_unbuilt(members)
        if n_built:  # the rows before the first unbuilt one are checked first, as one by one
            block = _margins(members[:n_built], target_constant(class_id, spec, order, tol), r_checked)
            margins += block.tolist()
            failures += [
                {"index": i, "epsilon": omega.epsilon, "power": omega.power, "margin": margin}
                for i, omega, margin in zip(indices, omegas, block.tolist())
                if not margin >= -_MARGIN_SLACK
            ]
        if n_built < len(omegas):
            raise _unbuilt_error(members[n_built])
    witness = None
    if result.sharp:
        report = sharpness_witness(class_id, spec, result, delta=0.01, order=order)
        witness = {
            "radius": report.radius,
            "value_at_radius": report.value_at_radius,
            "bound": report.bound,
            "delta": report.delta,
            "value_beyond": report.value_beyond,
            "exceeds_beyond": report.exceeds_beyond,
        }
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
