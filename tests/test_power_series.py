import hashlib
import json
import math
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from routes import (
    allclose,
    compose_with_selfmap,
    divide_by_z,
    integrate_from_zero,
    monomial,
    reflect,
    shift_up,
    sqrt_series,
)
from scipy.integrate import quad

from bohrcc import power_series as ps
from bohrcc.catalog import expblend, janowski, lemniscate, phi_series, sakaguchi, strongly, wang
from bohrcc.errors import DomainError, PrecisionError


def geometric(order=32):
    return ps.TruncatedSeries([1.0] * order)


class TestMul:
    def test_geometric_inverse(self):
        out = ps.mul(ps.TruncatedSeries([1, -1] + [0] * 30), geometric())
        want = np.zeros(32)
        want[0] = 1.0
        assert np.allclose(out.coeffs, want, atol=1e-15)

    def test_koebe_like_product(self):
        # z * 1/(1-z)^2 has n as the coefficient of z^n
        sq = ps.TruncatedSeries(np.arange(1, 33))  # 1/(1-z)^2
        out = ps.mul(monomial(1.0, 1, 32), sq)
        assert np.allclose(out.coeffs, np.arange(32), atol=1e-15)

    def test_one_identity(self):
        s = ps.TruncatedSeries([2, -3, 0.5, 7])
        assert allclose(ps.mul(s, ps.TruncatedSeries([1, 0, 0, 0])), s)

    def test_truncates_to_min_order(self):
        assert ps.mul(ps.TruncatedSeries([1, 1, 1]), ps.TruncatedSeries([1, 1])).order == 2


class TestExp:
    def test_exp_zero(self):
        out = ps.exp_series(ps.TruncatedSeries(np.zeros(8)))
        assert out.coeffs[0] == 1.0 and np.all(out.coeffs[1:] == 0.0)

    def test_exp_z(self):
        out = ps.exp_series(monomial(1.0, 1, 10))
        want = [1.0 / math.factorial(n) for n in range(10)]
        assert np.allclose(out.coeffs, want, atol=1e-15)

    def test_exp_reproduces_square_of_geometric(self):
        # exp(sum 2 z^n / n) = 1/(1-z)^2, coefficient n+1
        s = ps.TruncatedSeries([0.0] + [2.0 / n for n in range(1, 24)])
        out = ps.exp_series(s)
        assert np.allclose(out.coeffs, np.arange(1, 25), atol=1e-10)

    def test_rejects_constant_term(self):
        with pytest.raises(DomainError):
            ps.exp_series(ps.TruncatedSeries([0.5, 1]))


class TestSqrt:
    """The series square root, kept in tests/routes.py as the oracle of K'."""

    def test_sqrt_one(self):
        out = sqrt_series(ps.TruncatedSeries([1, 0, 0]))
        assert list(out.coeffs) == [1, 0, 0]

    def test_perfect_square(self):
        square = ps.mul(ps.TruncatedSeries([1, 1, 0, 0]), ps.TruncatedSeries([1, 1, 0, 0]))
        assert allclose(sqrt_series(square), ps.TruncatedSeries([1, 1, 0, 0]))

    def test_geometric_square_roundtrip(self):
        sq = ps.TruncatedSeries(np.arange(1, 25))  # 1/(1-z)^2
        root = sqrt_series(sq)
        assert np.allclose(root.coeffs, np.ones(24), atol=1e-12)
        assert allclose(ps.mul(root, root), sq)

    def test_rejects_other_constant(self):
        with pytest.raises(DomainError):
            sqrt_series(ps.TruncatedSeries([4.0, 1.0]))


#: the six canonical specs and a mixed-sign Janowski spec
RECURRENCE_SPECS = [
    janowski(1.0, -1.0),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.03),
    strongly(0.5),
    wang(0.5, 1.0),
    janowski(0.5, 0.3),
]

#: sha256 of the coefficient bytes of each output of recurrence_outputs()
RECURRENCE_PINS = json.loads(
    (Path(__file__).parent / "golden" / "recurrence_sha256.json").read_text()
)


@cache
def recurrence_outputs() -> dict[str, ps.TruncatedSeries]:
    """exp of each spec's log-k' series sum phi_n z^n / n, and the oracle
    route's sqrt of that k' composed with z^2 (zeros at the odd places) and
    with -z^2 (signs alternating in pairs), at orders 1, 2, 3, 8, 64 and 256."""
    out = {}
    for spec in RECURRENCE_SPECS:
        for order in (1, 2, 3, 8, 64, 256):
            log_k_prime = np.zeros(order)
            log_k_prime[1:] = phi_series(spec, order).coeffs[1:] / np.arange(1, order)
            k_prime = ps.exp_series(ps.TruncatedSeries(log_k_prime))
            out[f"exp {spec.label()} log-k' order {order}"] = k_prime
            for sign, name in ((1.0, "+z^2"), (-1.0, "-z^2")):
                square = compose_with_selfmap(k_prime, monomial(sign, 2, order))
                out[f"sqrt {spec.label()} k'({name}) order {order}"] = sqrt_series(square)
    return out


def _exp_reference(s: ps.TruncatedSeries) -> np.ndarray:
    """exp_series as a dot with the negative-stride view of the
    coefficients written so far."""
    n = s.order
    weighted = s.coeffs * np.arange(n)
    out = np.zeros(n)
    out[0] = 1.0
    for m in range(1, n):
        out[m] = np.dot(weighted[1 : m + 1], out[m - 1 :: -1][:m]) / m
    return out


def _sqrt_reference(s: ps.TruncatedSeries) -> np.ndarray:
    """sqrt_series as a dot with the negative-stride view of the
    coefficients written so far."""
    n = s.order
    out = np.zeros(n)
    out[0] = 1.0
    for m in range(1, n):
        conv = np.dot(out[1:m], out[m - 1 : 0 : -1]) if m >= 2 else 0.0
        out[m] = 0.5 * (s.coeffs[m] - conv)
    return out


@pytest.mark.parametrize("order", [1, 2, 3, 8, 33, 64, 256])
def test_recurrences_match_the_strided_reference(order):
    rng = np.random.default_rng(9000 + order)
    for _ in range(5):
        c = rng.standard_normal(order) * 10.0 ** rng.uniform(-3, 1, order)
        c[0] = 0.0
        s = ps.TruncatedSeries(c)
        assert np.array_equal(ps.exp_series(s).coeffs, _exp_reference(s))
        c[0] = 1.0
        s = ps.TruncatedSeries(c)
        assert np.array_equal(sqrt_series(s).coeffs, _sqrt_reference(s))


def test_recurrence_pins_cover_every_output():
    assert sorted(RECURRENCE_PINS) == sorted(recurrence_outputs())


@pytest.mark.parametrize("key", sorted(RECURRENCE_PINS))
def test_recurrence_bits(key):
    coeffs = recurrence_outputs()[key].coeffs
    assert hashlib.sha256(coeffs.tobytes()).hexdigest() == RECURRENCE_PINS[key]


class TestIntegrate:
    """Termwise integration, kept in tests/routes.py as the oracle of the
    class transform ``ClassId.transform``."""

    def test_constant(self):
        out = integrate_from_zero(ps.TruncatedSeries([1.0]))
        assert list(out.coeffs) == [0.0, 1.0]

    def test_termwise(self):
        out = integrate_from_zero(ps.TruncatedSeries(np.arange(1, 9)))
        assert np.allclose(out.coeffs, np.concatenate([[0.0], np.ones(8)]))

    def test_order_grows(self):
        assert integrate_from_zero(ps.TruncatedSeries(np.zeros(5))).order == 6

    def test_majorant_integral_matches_quadrature(self):
        # termwise integration of the majorant equals 1-D quadrature of its
        # pointwise evaluation
        rng = np.random.default_rng(2024)
        g = ps.TruncatedSeries(rng.normal(size=20))
        curve = integrate_from_zero(ps.majorant(g))
        m_g, at = ps.evaluator(ps.majorant(g)), ps.evaluator(curve)
        for r in (0.1, 0.25, 1.0 / 3.0):
            direct = quad(m_g, 0.0, r, epsabs=1e-12)[0]
            assert abs(at(r) - direct) <= 1e-9


class TestMajorant:
    def test_flips_signs(self):
        out = ps.majorant(ps.TruncatedSeries([1, -1]))
        assert list(out.coeffs) == [1, 1]

    def test_fixed_point_for_nonnegative(self):
        s = ps.TruncatedSeries([1, 2, 0, 0.5])
        assert allclose(ps.majorant(s), s)

    def test_value(self):
        s = ps.TruncatedSeries([0, 1, 0, -1])
        assert ps.evaluator(ps.majorant(s))(0.5) == pytest.approx(0.625, abs=1e-15)


class TestEval:
    def test_geometric_at_half(self):
        assert ps.evaluator(geometric(64))(0.5) == pytest.approx(2.0, abs=1e-15)

    def test_at_zero(self):
        assert ps.evaluator(ps.TruncatedSeries([7, 1, 2]))(0.0) == 7.0

    def test_koebe_value(self):
        koebe = ps.TruncatedSeries(np.arange(64))  # z/(1-z)^2
        assert ps.evaluator(koebe)(1.0 / 3.0) == pytest.approx(0.75, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ps.evaluator(geometric())(1.0)
        with pytest.raises(DomainError):
            ps.evaluator(geometric())(-1.5)

    def test_tail_guard(self):
        with pytest.raises(PrecisionError):
            ps.evaluator(geometric(16), 1e-12)(0.9)
        # passes once the tolerance is realistic for the radius
        ps.evaluator(geometric(16), 1.0)(0.8)


def _eval_points(seed):
    rng = np.random.default_rng(seed)
    xs = [float(x) for x in rng.uniform(-1.0, 1.0, 200)]
    return xs + [0.0, -0.0, -0.5, -1e-300, 0.999999, -0.999999]


class TestEvalBits:
    """Plain-float Horner equals numpy's polyval bit for bit."""

    @pytest.mark.parametrize("order", [1, 2, 3, 64, 256])
    def test_matches_polyval(self, order):
        rng = np.random.default_rng(order)
        series = [
            ps.TruncatedSeries(rng.standard_normal(order)),
            ps.TruncatedSeries(rng.standard_normal(order) / np.arange(1, order + 1) ** 2),
            monomial(0.0 if order == 1 else 1.0, order - 1, order),
        ]
        for s in series:
            at = ps.evaluator(s)
            for x in _eval_points(1000 + order):
                got, want = at(x), float(npoly.polyval(x, s.coeffs))
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), x

    def test_does_not_call_polyval(self, monkeypatch):
        s = ps.TruncatedSeries(np.random.default_rng(3).standard_normal(64))
        xs = [float(x) for x in np.linspace(-0.99, 0.99, 100)]
        want = [float(npoly.polyval(x, s.coeffs)) for x in xs]

        def refuse(*args, **kwargs):
            raise AssertionError("the evaluator went through numpy")

        monkeypatch.setattr(npoly, "polyval", refuse)
        at = ps.evaluator(s)
        assert [at(x) for x in xs] == want


class TestReversedEvaluator:
    """An evaluator stores the coefficients reversed once; its values are
    numpy's ``np.polyval`` of the reversed vector, bit for bit."""

    @pytest.mark.parametrize("order", [1, 2, 5, 64, 200])
    def test_matches_np_polyval(self, order):
        rng = np.random.default_rng(7000 + order)
        for _ in range(5):
            s = ps.TruncatedSeries(rng.standard_normal(order) * 10.0 ** rng.uniform(-3, 3, order))
            at = ps.evaluator(s)
            for x in _eval_points(order) + [float(x) for x in rng.uniform(-1.0, 1.0, 50)]:
                got, want = at(x), float(np.polyval(s.coeffs[::-1], x))
                assert got.hex() == want.hex(), x

    def test_signed_zero_and_a_zero_series(self):
        at = ps.evaluator(ps.TruncatedSeries([-0.0, 0.0, -0.0]))
        for x in (0.0, -0.0, 0.5, -0.5):
            assert at(x).hex() == float(np.polyval([-0.0, 0.0, -0.0], x)).hex(), x

    def test_tail_guard_text(self):
        at = ps.evaluator(geometric(16), 1e-12)
        assert at(0.1) == float(np.polyval(np.ones(16), 0.1))
        with pytest.raises(
            PrecisionError, match=r"^truncation tail ~1\.85 exceeds tolerance 1e-12 at r=0\.9$"
        ):
            at(-0.9)
        with pytest.raises(DomainError, match=r"^series evaluation requires \|x\| < 1, got -1\.0$"):
            at(-1.0)


#: log10 ranges of the even coefficients' magnitudes: tiny (down to the
#: subnormals and 0.0), moderate, huge, and all of them at once
_MAGNITUDES = {
    "tiny": (-330.0, -290.0),
    "moderate": (-3.0, 3.0),
    "huge": (290.0, 308.2),
    "any": (-330.0, 308.2),
}
_EVEN_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 0.999999, -0.999999]),
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def _even_series(draw):
    """A series of order 1-256 whose odd coefficients are all +-0.0 and whose
    even ones are signed, with magnitudes from one of ``_MAGNITUDES``."""
    n = draw(st.integers(1, 256))
    lo, hi = _MAGNITUDES[draw(st.sampled_from(sorted(_MAGNITUDES)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = np.zeros(n)
    c[::2] = rng.choice([-1.0, 1.0], c[::2].size) * 10.0 ** rng.uniform(lo, hi, c[::2].size)
    c[1::2] = rng.choice([0.0, -0.0], c[1::2].size)
    return ps.TruncatedSeries(c)


def _geometric_even(order):
    return ps.TruncatedSeries(np.where(np.arange(order) % 2 == 0, 1.0, 0.0))


class TestEvenSeries:
    """An even series (a mixed-sign spec's M_{K'} is one) is evaluated by
    ``_horner`` over all its coefficients, signed zeros included."""

    @settings(max_examples=60, deadline=None)
    @given(s=_even_series(), xs=st.lists(_EVEN_POINTS, min_size=1, max_size=6))
    def test_matches_horner_bits(self, s, xs):
        top, *rest = s.coeffs[::-1].tolist()
        at = ps.evaluator(s)
        for x in xs:
            assert at(x).hex() == ps._horner(top, rest, x).hex(), x

    def test_negative_zero_takes_the_full_loop(self):
        # c_0 = -0.0 after the underflow 1e-300 * -1e-300 = -0.0: Horner adds
        # the odd 0.0 (giving +0.0) where a loop over the even terms would not
        s = ps.TruncatedSeries([-0.0, 0.0, 1e-300])
        assert ps.evaluator(s)(-1e-300).hex() == "-0x0.0p+0"
        assert (1e-300 * -1e-300 * -1e-300 + -0.0).hex() == "0x0.0p+0"

    def test_tail_guard_text(self):
        # the guard reads c_{N-1}, here the even top coefficient
        at = ps.evaluator(_geometric_even(17), 1e-12)
        assert at(0.1) == float(np.polyval(_geometric_even(17).coeffs[::-1], 0.1))
        with pytest.raises(
            PrecisionError, match=r"^truncation tail ~1\.67 exceeds tolerance 1e-12 at r=0\.9$"
        ):
            at(-0.9)
        with pytest.raises(DomainError, match=r"^series evaluation requires \|x\| < 1, got -1\.0$"):
            at(-1.0)


class TestCompose:
    """Series composition, kept in tests/routes.py as the oracle of K' and of
    the verifier's members."""

    def test_identity_map(self):
        s = ps.TruncatedSeries([1, 2, 3, 4])
        out = compose_with_selfmap(s, monomial(1.0, 1, 4))
        assert allclose(out, s)

    def test_rescaling(self):
        out = compose_with_selfmap(geometric(10), monomial(0.5, 1, 10))
        assert np.allclose(out.coeffs, 0.5 ** np.arange(10), atol=1e-15)

    def test_parity(self):
        out = compose_with_selfmap(geometric(11), monomial(1.0, 2, 11))
        assert np.all(out.coeffs[1::2] == 0.0)

    def test_general_map_matches_monomial_fast_path(self):
        rng = np.random.default_rng(11)
        s = ps.TruncatedSeries(rng.normal(size=16))
        w = np.zeros(16)
        w[3] = 0.7
        generic = ps.TruncatedSeries(w + 0.0)
        # force the generic Horner path with a tiny second entry, then zero it
        w2 = w.copy()
        w2[5] = 1e-300
        via_horner = compose_with_selfmap(s, ps.TruncatedSeries(w2))
        via_fast = compose_with_selfmap(s, generic)
        assert allclose(via_horner, via_fast, 1e-12)

    def test_rejects_nonzero_at_origin(self):
        with pytest.raises(DomainError):
            compose_with_selfmap(geometric(4), ps.TruncatedSeries([0.1, 1, 0, 0]))


class TestHelpers:
    def test_divide_by_z(self):
        out = divide_by_z(ps.TruncatedSeries([0, 3, 5]))
        assert list(out.coeffs) == [3, 5]
        with pytest.raises(DomainError):
            divide_by_z(ps.TruncatedSeries([1, 0]))
        # an order-1 quotient keeps one zero coefficient
        assert divide_by_z(ps.TruncatedSeries([0.0])).coeffs.tolist() == [0.0]

    def test_monomial(self):
        assert monomial(2.5, 2, 4).coeffs.tolist() == [0.0, 0.0, 2.5, 0.0]
        assert monomial(2.5, 4, 4).coeffs.tolist() == [0.0] * 4
        for degree, order in ((-1, 4), (0, 0)):
            with pytest.raises(DomainError, match="^degree must be >= 0 and order >= 1$"):
                monomial(1.0, degree, order)

    def test_shift_up(self):
        assert list(shift_up(ps.TruncatedSeries([1, 2, 3])).coeffs) == [0, 1, 2]

    def test_reflect(self):
        assert list(reflect(ps.TruncatedSeries([1, 2, 3, 4])).coeffs) == [1, -2, 3, -4]

    def test_validation(self):
        with pytest.raises(DomainError):
            ps.TruncatedSeries([1.0, float("nan")])
        with pytest.raises(DomainError):
            ps.TruncatedSeries([])


class TestRandomizedInvariants:
    """Seeded sweeps over random series of order <= 16."""

    def _random_series(self, rng, order=16):
        return ps.TruncatedSeries(rng.normal(scale=2.0, size=order))

    def test_mul_commutative_associative(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            a, b, c = (self._random_series(rng) for _ in range(3))
            ab = ps.mul(a, b)
            assert allclose(ab, ps.mul(b, a), 1e-12)
            assert allclose(ps.mul(ab, c), ps.mul(a, ps.mul(b, c)), 1e-12)

    def test_exp_is_multiplicative(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            a = self._random_series(rng).coeffs.copy()
            b = self._random_series(rng).coeffs.copy()
            a[0] = b[0] = 0.0
            a, b = ps.TruncatedSeries(a * 0.3), ps.TruncatedSeries(b * 0.3)
            lhs = ps.exp_series(ps.TruncatedSeries(a.coeffs + b.coeffs))
            rhs = ps.mul(ps.exp_series(a), ps.exp_series(b))
            assert allclose(lhs, rhs, 1e-9)

    def test_sqrt_roundtrip(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            c = self._random_series(rng).coeffs.copy() * 0.5
            c[0] = 1.0
            s = ps.TruncatedSeries(c)
            assert allclose(ps.mul(sqrt_series(s), sqrt_series(s)), s, 1e-9)

    def test_majorant_product_bound(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            a, b = self._random_series(rng), self._random_series(rng)
            r = rng.uniform(0.05, 0.95)
            prod = ps.evaluator(ps.majorant(ps.mul(a, b)))(r)
            bound = ps.evaluator(ps.majorant(a))(r) * ps.evaluator(ps.majorant(b))(r)
            assert prod <= bound + 1e-12 * abs(bound)

    def test_subordination_majorant_comparison(self):
        # composing with eps * z^m can only shrink the coefficient sum at
        # radii up to 1/3
        rng = np.random.default_rng(505)
        for _ in range(200):
            f = self._random_series(rng)
            w = monomial(rng.uniform(0.0, 1.0), int(rng.integers(1, 6)), 16)
            m_q = ps.evaluator(ps.majorant(compose_with_selfmap(f, w)))
            m_f = ps.evaluator(ps.majorant(f))
            for r in (0.1, 0.25, 1.0 / 3.0):
                assert m_q(r) <= m_f(r) + 1e-10
