import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from routes import FAMILY_BOXES, series_has_positive_coeffs

from bohrcc import catalog
from bohrcc import power_series as ps
from bohrcc.catalog import (
    PhiSpec,
    as_janowski,
    check_min_max_hypothesis,
    expblend,
    has_positive_coeffs,
    janowski,
    lemniscate,
    majorant_phi_evaluator,
    phi_evaluator,
    phi_complex,
    phi_series,
    sakaguchi,
    strongly,
    wang,
)
from bohrcc.errors import DomainError, ParameterError

_up = lambda x: math.nextafter(x, math.inf)
_down = lambda x: math.nextafter(x, -math.inf)

ALL_SPECS = [
    janowski(1.0, -1.0),
    janowski(0.5, 0.25),
    sakaguchi(0.25),
    lemniscate(0.5),
    expblend(0.03),
    strongly(0.5),
    wang(0.5, 1.0),
]

#: ALL_SPECS without its second Janowski spec: one spec per family
ONE_PER_FAMILY = ALL_SPECS[:1] + ALL_SPECS[2:]

#: sha256 of phi_series(spec, order).coeffs.tobytes() for each of ALL_SPECS
#: at orders 1, 2, 3, 64 and 256
SERIES_PINS = json.loads((Path(__file__).parent / "golden" / "phi_series_sha256.json").read_text())


class TestValidation:
    @pytest.mark.parametrize(
        "factory,args",
        [
            (janowski, (0.5, 0.5)),  # B == A
            (janowski, (0.5, -1.5)),
            (sakaguchi, (1.0,)),
            (sakaguchi, (-0.1,)),
            (lemniscate, (0.0,)),
            (lemniscate, (0.8,)),
            (expblend, (1.0,)),
            (strongly, (0.0,)),
            (strongly, (1.1,)),
            (wang, (1.2, 0.5)),
            (wang, (0.5, 0.0)),
        ],
    )
    def test_rejects_out_of_range(self, factory, args):
        with pytest.raises(ParameterError):
            factory(*args)

    def test_boundary_lemniscate_accepted(self):
        lemniscate(math.sqrt(0.5))

    @pytest.mark.parametrize(
        "factory,args,message",
        [
            (janowski, (0.5, -1.0), None),
            (janowski, (0.5, _down(-1.0)), "janowski requires -1 <= B < A <= 1, got A=0.5, B=-1.0000000000000002"),
            (janowski, (0.3, _down(0.3)), None),
            (janowski, (0.3, 0.3), "janowski requires -1 <= B < A <= 1, got A=0.3, B=0.3"),
            (janowski, (1.0, 0.0), None),
            (janowski, (_up(1.0), 0.0), "janowski requires -1 <= B < A <= 1, got A=1.0000000000000002, B=0.0"),
            (janowski, (math.nan, 0.0), "janowski requires -1 <= B < A <= 1, got A=nan, B=0.0"),
            (sakaguchi, (0.0,), None),
            (sakaguchi, (_down(0.0),), "sakaguchi requires 0 <= gamma < 1, got -5e-324"),
            (sakaguchi, (_down(1.0),), None),
            (sakaguchi, (1.0,), "sakaguchi requires 0 <= gamma < 1, got 1.0"),
            (sakaguchi, (math.nan,), "sakaguchi requires 0 <= gamma < 1, got nan"),
            (lemniscate, (_up(0.0),), None),
            (lemniscate, (0.0,), "lemniscate requires 0 < s <= 1/sqrt(2), got 0.0"),
            (lemniscate, (math.sqrt(0.5),), None),
            (lemniscate, (_up(math.sqrt(0.5)),), "lemniscate requires 0 < s <= 1/sqrt(2), got 0.7071067811865477"),
            (lemniscate, (math.nan,), "lemniscate requires 0 < s <= 1/sqrt(2), got nan"),
            (expblend, (0.0,), None),
            (expblend, (_down(0.0),), "expblend requires 0 <= alpha < 1, got -5e-324"),
            (expblend, (_down(1.0),), None),
            (expblend, (1.0,), "expblend requires 0 <= alpha < 1, got 1.0"),
            (expblend, (math.nan,), "expblend requires 0 <= alpha < 1, got nan"),
            (strongly, (_up(0.0),), None),
            (strongly, (0.0,), "strongly requires 0 < alpha <= 1, got 0.0"),
            (strongly, (1.0,), None),
            (strongly, (_up(1.0),), "strongly requires 0 < alpha <= 1, got 1.0000000000000002"),
            (strongly, (math.nan,), "strongly requires 0 < alpha <= 1, got nan"),
            (wang, (0.0, 0.5), None),
            (wang, (_down(0.0), 0.5), "wang requires 0 <= alpha <= 1 and 0 < beta <= 1, got -5e-324, 0.5"),
            (wang, (1.0, 0.5), None),
            (wang, (_up(1.0), 0.5), "wang requires 0 <= alpha <= 1 and 0 < beta <= 1, got 1.0000000000000002, 0.5"),
            (wang, (0.5, _up(0.0)), None),
            (wang, (0.5, 0.0), "wang requires 0 <= alpha <= 1 and 0 < beta <= 1, got 0.5, 0.0"),
            (wang, (0.5, 1.0), None),
            (wang, (0.5, _up(1.0)), "wang requires 0 <= alpha <= 1 and 0 < beta <= 1, got 0.5, 1.0000000000000002"),
            (wang, (0.5, math.nan), "wang requires 0 <= alpha <= 1 and 0 < beta <= 1, got 0.5, nan"),
        ],
    )
    def test_box_edges(self, factory, args, message):
        # one float inside and one outside each edge of the family's box
        if message is None:
            assert factory(*args).params == args
        else:
            with pytest.raises(ParameterError) as exc:
                factory(*args)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "family,params,message",
        [
            ("janowski", (1.0,), "janowski takes parameters ('A', 'B'), got 1 values"),
            ("wang", (1.0, 2.0, 3.0), "wang takes parameters ('alpha', 'beta'), got 3 values"),
            ("lemniscate", (), "lemniscate takes parameters ('s',), got 0 values"),
        ],
    )
    def test_arity_text(self, family, params, message):
        with pytest.raises(ParameterError) as exc:
            PhiSpec(family, params)
        assert str(exc.value) == message

    def test_unknown_family(self):
        with pytest.raises(ParameterError) as exc:
            PhiSpec("mystery", (1.0,))
        assert str(exc.value) == "unknown family 'mystery'"

    def test_label(self):
        assert janowski(1, -1).label() == "janowski(A=1, B=-1)"


class TestSeries:
    @pytest.mark.parametrize("order", [64.0, 64.5, True, False])
    @pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=lambda s: s.family)
    def test_non_integer_order_is_rejected(self, spec, order):
        with pytest.raises(ParameterError, match=f"^order must be an integer, got {order}$"):
            phi_series(spec, order)

    @pytest.mark.parametrize("spec", ONE_PER_FAMILY, ids=lambda s: s.family)
    def test_order_zero_is_rejected(self, spec):
        with pytest.raises(ParameterError, match="^order must be positive$"):
            phi_series(spec, 0)

    def test_lemniscate_coeffs(self):
        c = phi_series(lemniscate(0.5), 6).coeffs
        assert np.allclose(c, [1.0, 1.0, 0.25, 0.0, 0.0, 0.0])

    def test_full_range_janowski(self):
        c = phi_series(janowski(1.0, -1.0), 6).coeffs
        assert np.allclose(c, [1, 2, 2, 2, 2, 2])

    def test_expblend_coeffs(self):
        a = 0.4
        c = phi_series(expblend(a), 6).coeffs
        want = [1.0] + [(1 - a) / math.factorial(n) for n in range(1, 6)]
        assert np.allclose(c, want, atol=1e-15)

    def test_strongly_matches_binomial_convolution(self):
        # independent route: (1+z)^a * (1-z)^(-a) via two binomial series
        a = 0.5
        n = 20
        plus = np.ones(n)
        minus = np.ones(n)
        for k in range(1, n):
            plus[k] = plus[k - 1] * (a - (k - 1)) / k  # C(a, k)
            minus[k] = minus[k - 1] * (a + (k - 1)) / k  # C(a+k-1, k)
        want = np.convolve(plus, minus)[:n]
        got = phi_series(strongly(a), n).coeffs
        assert np.allclose(got, want, atol=1e-12)

    def test_sakaguchi_equals_janowski_reparam(self):
        for g in (0.0, 0.25, 0.49, 0.75):
            lhs = phi_series(sakaguchi(g), 32).coeffs
            rhs = phi_series(janowski(1 - 2 * g, -1.0), 32).coeffs
            assert np.array_equal(lhs, rhs)

    def test_wang_is_janowski_reparam(self):
        assert as_janowski(wang(0.5, 0.8)) == (0.8, -0.4)

    @pytest.mark.parametrize("key", sorted(SERIES_PINS))
    def test_coefficient_bits(self, key):
        # orders 1 to 3 stop inside the closed-form heads of the series
        label, order = key.rsplit(" order ", 1)
        spec = next(s for s in ALL_SPECS if s.label() == label)
        coeffs = phi_series(spec, int(order)).coeffs
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == SERIES_PINS[key]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_normalization(self, spec):
        c = phi_series(spec, 16).coeffs
        assert c[0] == 1.0
        assert c[1] > 0.0  # phi'(0) > 0


class TestPointwise:
    def test_full_range_value(self):
        assert phi_evaluator(janowski(1, -1))(0.5) == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_value_at_zero(self, spec):
        assert phi_evaluator(spec)(0.0) == 1.0

    def test_lemniscate_left_end(self):
        assert phi_evaluator(lemniscate(0.5))(-1.0) == pytest.approx(0.25, abs=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            phi_evaluator(janowski(1, -1))(1.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_series_agrees_with_closed_form(self, spec):
        s, phi = phi_series(spec, 64), phi_evaluator(spec)
        series = ps.evaluator(s)
        for x in np.linspace(-0.9, 0.9, 13):
            tail = ps._tail_hint(abs(float(s.coeffs[-1])), s.order, abs(x))
            assert abs(series(x) - phi(float(x))) <= 1e-10 + tail

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_positive_on_diameter(self, spec):
        phi = phi_evaluator(spec)
        for x in np.linspace(-0.95, 0.95, 21):
            assert phi(float(x)) > 0.0


class TestPositivity:
    def test_full_range_positive(self):
        assert has_positive_coeffs(janowski(1, -1))

    def test_lemniscate_nonnegative_convention(self):
        # zeros beyond degree 2 are allowed; the majorant identity is what counts
        assert has_positive_coeffs(lemniscate(0.5))

    def test_alternating_janowski(self):
        assert not has_positive_coeffs(janowski(0.5, 0.25))

    @pytest.mark.parametrize("family", sorted(FAMILY_BOXES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_closed_predicate_matches_the_series_signs(self, family, data):
        spec = PhiSpec(family, data.draw(FAMILY_BOXES[family]))
        a, b = as_janowski(spec) or (1.0, 0.0)
        assume(b == 0.0 or b * (a - b) != 0.0)  # else c_2 = -B(A - B) underflows to a zero
        assert has_positive_coeffs(spec) == series_has_positive_coeffs(spec)

    def test_underflow_corner_reads_the_true_signs(self):
        # c_2 = -B(A - B) = -1e-400 rounds to -0.0, so the computed series
        # looks nonnegative, while the true coefficients (A - B)(-B)^(n-1) alternate
        spec = janowski(2e-200, 1e-200)
        assert phi_series(spec, 64).coeffs[2].hex() == "-0x0.0p+0"
        assert series_has_positive_coeffs(spec)
        assert not has_positive_coeffs(spec)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_majorant_identity_for_positive(self, spec):
        if not has_positive_coeffs(spec):
            pytest.skip("mixed signs")
        maj = ps.evaluator(ps.majorant(phi_series(spec, 64)))
        for r in (0.1, 0.2, 1.0 / 3.0):
            assert abs(maj(r) - phi_evaluator(spec)(r)) <= 1e-12

    def test_majorant_closed_form_mixed_signs(self):
        spec = janowski(0.5, 0.25)
        maj = ps.evaluator(ps.majorant(phi_series(spec, 64)))
        for r in (0.1, 0.3, 0.5):
            assert majorant_phi_evaluator(spec)(r) == pytest.approx(maj(r), abs=1e-12)


class TestMinMaxHypothesis:
    def test_full_range_janowski(self):
        assert check_min_max_hypothesis(janowski(1, -1), 0.5, 100)

    def test_lemniscate_near_boundary(self):
        assert check_min_max_hypothesis(lemniscate(math.sqrt(0.5)), 0.9, 100)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_small_radius(self, spec):
        assert check_min_max_hypothesis(spec, 1e-3, 50)

    def test_complex_evaluator_consistent_on_axis(self):
        for spec in ALL_SPECS:
            z = 0.3 + 0.0j
            assert phi_complex(spec, z).real == pytest.approx(phi_evaluator(spec)(0.3), abs=1e-14)
            assert abs(phi_complex(spec, z).imag) < 1e-14

    @pytest.mark.parametrize("modulus", [0.0, 10.0], ids=["below", "above"])
    def test_violation_off_the_axis(self, monkeypatch, modulus):
        # |phi| on the circle outside [phi(-r), phi(r)]
        monkeypatch.setattr(catalog, "phi_complex", lambda spec, z: complex(modulus))
        assert check_min_max_hypothesis(janowski(1, -1), 0.5, 10) is False

    @pytest.mark.parametrize("z", [1.0, -1.0, 0.6 + 0.8j, 2j, math.nan, complex(0.0, math.nan)])
    def test_phi_complex_needs_the_open_disk(self, z):
        with pytest.raises(DomainError, match=r"^phi_complex requires \|z\| < 1$"):
            phi_complex(lemniscate(0.5), z)

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            check_min_max_hypothesis(janowski(1, -1), 1.5, 10)
        with pytest.raises(ParameterError):
            check_min_max_hypothesis(janowski(1, -1), 0.5, 1)
