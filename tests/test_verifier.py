import hashlib
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from routes import (
    BOX_SPECS,
    FAMILY_BOXES,
    allclose,
    check_subordination_lemma,
    compose_with_selfmap,
    series_transform,
    shift_up,
    to_series,
)

from _bench_inputs import BENCH_INPUTS

from bohrcc import power_series as ps
from bohrcc import verifier
from bohrcc.catalog import FAMILIES, PhiSpec, janowski, lemniscate, phi_series, sakaguchi, strongly
from bohrcc.errors import DomainError, InconsistencyError, ParameterError, PrecisionError
from bohrcc.extremal import build_extremal
from bohrcc.solver import ClassId, kernel_series, solve_radius, target_constant
from bohrcc.verifier import SelfMap, check_bohr, run_campaign, sample_member


class TestSelfMap:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SelfMap(1.5, 1)
        with pytest.raises(ParameterError):
            SelfMap(0.5, 0)

    @pytest.mark.parametrize(
        "epsilon, power, message",
        [
            (0.5, 1.5, "self-map needs an integer power, got 1.5"),
            (0.5, 2.0, "self-map needs an integer power, got 2.0"),
            (0.5, "2", "self-map needs an integer power, got '2'"),
            (0.5, True, "self-map needs an integer power, got True"),
            ("0.5", 2, "self-map needs a real 0 <= epsilon <= 1, got '0.5'"),
            (True, 2, "self-map needs a real 0 <= epsilon <= 1, got True"),
            (float("nan"), 2, "self-map needs a real 0 <= epsilon <= 1, got nan"),
        ],
        ids=["fractional", "float", "str", "bool", "str-epsilon", "bool-epsilon", "nan-epsilon"],
    )
    def test_power_and_epsilon_types(self, epsilon, power, message):
        # rejected before a member is built, not by numpy's cast of the power
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            sample_member(ClassId.SC, lemniscate(0.5), SelfMap(epsilon, power))

    def test_numpy_integer_power(self):
        omega = SelfMap(0.5, np.int64(2))
        assert omega == SelfMap(0.5, 2) and type(omega.power) is int
        want = sample_member(ClassId.SC, lemniscate(0.5), SelfMap(0.5, 2)).series.coeffs
        assert sample_member(ClassId.SC, lemniscate(0.5), omega).series.coeffs.tobytes() == want.tobytes()

    def test_series(self):
        w = to_series(SelfMap(0.25, 3), 8)
        want = np.zeros(8)
        want[3] = 0.25
        assert np.array_equal(w.coeffs, want)

    def test_identity(self):
        assert SelfMap(1.0) == SelfMap(1.0, 1)


class TestSampleMember:
    def test_sc_identity_reproduces_extremal(self):
        spec = lemniscate(0.5)
        es = build_extremal(spec)
        sf = sample_member(ClassId.SC, spec, SelfMap(1.0))
        assert allclose(sf.series, shift_up(es.k_prime), 1e-12)  # h = z k'

    def test_ks_identity_base_case_is_geometric(self):
        # f' = K(z) phi(z) with K = 1/(1-z^2), phi = (1+z)/(1-z) is
        # 1/(1-z)^2, so f = z/(1-z): every coefficient 1, through z^16
        sf = sample_member(ClassId.KS, sakaguchi(0.0), SelfMap(1.0), order=16)
        assert np.allclose(sf.series.coeffs[1:], np.ones(16), atol=1e-12)

    def test_zero_map_divides_coefficients(self):
        # phi(0 * z) == 1, so the Sc construction gives a_n = h_n / n with h = z k'
        spec = janowski(1, -1)
        h = shift_up(build_extremal(spec).k_prime)
        sf = sample_member(ClassId.SC, spec, SelfMap(0.0, 1))
        n = np.arange(1, 64)
        assert np.allclose(sf.series.coeffs[1:64], h.coeffs[1:] / n, atol=1e-13)

    def test_unnormalized_member_is_rejected(self, monkeypatch):
        # a kernel with K(0) = 2 builds a member with f'(0) = 2
        def doubled(class_id, spec, order):
            return ps.TruncatedSeries(2.0 * kernel_series(class_id, spec, order).coeffs)

        monkeypatch.setattr(verifier, "kernel_series", doubled)
        with pytest.raises(InconsistencyError, match=r"f\(0\)=0.0, f'\(0\)=2.0"):
            sample_member(ClassId.KS, sakaguchi(0.0), SelfMap(1.0))

    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_order_one_member_is_z(self, class_id):
        # every kernel and phi start at 1, and T takes 1 to z
        sf = sample_member(class_id, sakaguchi(0.0), SelfMap(1.0), order=1)
        assert sf.series.coeffs.tolist() == [0.0, 1.0]

    def test_fractional_order_is_rejected(self):
        with pytest.raises(ParameterError, match="^order must be an integer, got 64.5$"):
            sample_member(ClassId.SC, lemniscate(0.5), SelfMap(1.0), order=64.5)

    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_normalization_and_bound(self, class_id):
        sf = sample_member(class_id, lemniscate(0.5), SelfMap(0.7, 2))
        assert sf.series.coeffs[0] == 0.0
        assert sf.series.coeffs[1] == pytest.approx(1.0, abs=1e-12)
        assert sf.distance_bound > 0.0

    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_majorant_series_monotone_from_zero(self, class_id):
        sf = sample_member(class_id, lemniscate(0.5), SelfMap(0.5, 3))
        maj = ps.evaluator(ps.majorant(sf.series))
        vals = [maj(r) for r in np.linspace(0.0, 1 / 3, 9)]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestCheckBohr:
    def test_holds_at_capped_radius(self):
        spec = lemniscate(0.5)
        capped = solve_radius(ClassId.SC, spec).capped
        sf = sample_member(ClassId.SC, spec, SelfMap(0.3, 2))
        holds, margin = check_bohr(sf, capped)
        assert holds and margin > 0.0

    def test_extremal_margin_vanishes_at_sharp_radius(self):
        spec = lemniscate(0.5)
        r_f = solve_radius(ClassId.SC, spec).r_f
        sf = sample_member(ClassId.SC, spec, SelfMap(1.0))
        holds, margin = check_bohr(sf, r_f)
        assert holds and abs(margin) <= 1e-7

    def test_extremal_fails_beyond_sharp_radius(self):
        spec = lemniscate(0.5)
        r_f = solve_radius(ClassId.SC, spec).r_f
        sf = sample_member(ClassId.SC, spec, SelfMap(1.0))
        holds, margin = check_bohr(sf, r_f + 0.01)
        assert not holds and margin < 0.0

    def test_tail_guard(self):
        sf = sample_member(ClassId.SC, janowski(1, -1), SelfMap(1.0), order=24)
        with pytest.raises(PrecisionError):
            check_bohr(sf, 0.95)
        with pytest.raises(ParameterError):
            check_bohr(sf, 1.2)


class TestSubordination:
    def test_identity_is_equality(self):
        f = ps.TruncatedSeries([0, 1, 2, 3] + [0.1] * 12)
        assert check_subordination_lemma(f, SelfMap(1.0), [0.1, 1 / 3])

    def test_geometric_square_map(self):
        # f = sum z^n, w = z^2: 1/(1 - r^2) <= 1/(1 - r) termwise in majorants
        f = ps.TruncatedSeries([1.0] * 40)
        assert check_subordination_lemma(f, SelfMap(1.0, 2), [1 / 3])

    def test_randomized_batch(self):
        rng = np.random.default_rng(99)
        grid = [0.05, 0.15, 0.25, 1 / 3]
        for _ in range(100):
            f = ps.TruncatedSeries(rng.normal(size=20))
            w = SelfMap(float(rng.uniform(0, 1)), int(rng.integers(1, 6)))
            assert check_subordination_lemma(f, w, grid)

    def test_grid_validation(self):
        f = ps.TruncatedSeries([0, 1])
        with pytest.raises(ParameterError):
            check_subordination_lemma(f, SelfMap(1.0), [0.5])
        with pytest.raises(ParameterError):
            check_subordination_lemma(f, SelfMap(1.0), [])


class TestCampaign:
    def test_all_hold_at_computed_radius(self):
        rep = run_campaign(ClassId.SC, lemniscate(0.5), 100, seed=42)
        assert rep.ok and not rep.failures
        assert rep.min_margin >= -1e-9

    def test_ks_campaign_at_capped_radius(self):
        rep = run_campaign(ClassId.KS, sakaguchi(0.0), 100, seed=7, r=0.2573)
        assert rep.ok
        assert rep.min_margin > 0.0

    def test_single_sample_is_extremal_check(self):
        rep = run_campaign(ClassId.SC, lemniscate(0.5), 1, seed=0)
        assert rep.n == 1 and rep.ok
        assert abs(rep.min_margin) <= 1e-7  # the identity sample sits on the bound

    def test_deterministic_bytes(self):
        a = _json(run_campaign(ClassId.CC, lemniscate(0.5), 25, seed=5))
        b = _json(run_campaign(ClassId.CC, lemniscate(0.5), 25, seed=5))
        assert a == b
        c = _json(run_campaign(ClassId.CC, lemniscate(0.5), 25, seed=6))
        assert a != c

    def test_failure_report_beyond_radius(self):
        rep = run_campaign(ClassId.SC, lemniscate(0.5), 5, seed=3, r=0.34)
        assert not rep.ok
        assert rep.failures[0]["index"] == 0  # the extremal sample violates first
        assert rep.failures[0]["margin"] < 0.0

    def test_witness_included_for_sharp_cases(self):
        rep = run_campaign(ClassId.SC, lemniscate(0.5), 2, seed=1)
        assert rep.witness is not None
        assert rep.witness["exceeds_beyond"] is True
        rep2 = run_campaign(ClassId.KS, lemniscate(0.5), 2, seed=1)
        assert rep2.witness is None

    def test_json_fields(self):
        rep = run_campaign(ClassId.CS, lemniscate(0.5), 3, seed=11)
        payload = rep.to_json_dict()
        for key in ("class", "spec", "seed", "n", "r_checked", "min_margin", "failures"):
            assert key in payload
        assert payload["class"] == "Cs"
        assert payload["spec"] == {"family": "lemniscate", "params": {"s": 0.5}}

    def test_sample_count_validation(self):
        with pytest.raises(ParameterError, match="need at least one sample, got 0"):
            run_campaign(ClassId.SC, lemniscate(0.5), 0, seed=1)

    @pytest.mark.parametrize(
        "n, seed",
        [(5, 1.0), (2.5, 1), (True, 1), (5, False)],
        ids=["float-seed", "float-count", "bool-count", "bool-seed"],
    )
    def test_non_integer_count_or_seed_is_parameter_error(self, monkeypatch, n, seed):
        def forbidden(*args, **kwargs):
            raise AssertionError("the radius was solved before the arguments were checked")

        monkeypatch.setattr(verifier, "solve_radius", forbidden)
        message = f"need integer n_samples and seed, got {n!r}, {seed!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            run_campaign(ClassId.SC, lemniscate(0.5), n, seed)

    def test_fractional_order_is_rejected(self):
        # not truncated to the order-64 report
        with pytest.raises(ParameterError, match="^order must be an integer, got 64.5$"):
            run_campaign(ClassId.SC, lemniscate(0.5), 5, 1, order=64.5)

    @pytest.mark.parametrize("n", [1, 5])
    def test_negative_seed_is_parameter_error(self, n):
        with pytest.raises(ParameterError, match="seed must be nonnegative, got -1"):
            run_campaign(ClassId.SC, lemniscate(0.5), n, seed=-1)


def _json(report) -> str:
    """The report's payload as sorted-key JSON, the bytes the campaign pins hash."""
    return json.dumps(report.to_json_dict(), sort_keys=True)


def _sha(report) -> str:
    return hashlib.sha256(_json(report).encode()).hexdigest()


#: sha256 of _json(run_campaign(class, spec, 100, seed)) for the 24
#: canonical pairs.  Each margin is one row sum of |a_n| r^n, which rounds
#: unlike a Horner loop: its pins differ from Horner's by a few ulp of
#: ``min_margin`` and of failure margins, with the same failing draws.
CAMPAIGN_PINS = {
    ("Ks", "janowski", (1.0, -1.0), 1): "a11287bc7c1246339b6bdb9589fee75eaa8333cf3754714b792f5cf2b6dd1f9f",
    ("Ks", "sakaguchi", (0.25,), 1): "6af6a55aabbc8a045c5f34ee4da2e766ca75fb7310c604b8df0b91e8bb295be9",
    ("Ks", "lemniscate", (0.5,), 1): "f0e5ef96523ebdde3eef98e20256bd8893781bbe8e54f8e2817873f1e05c054b",
    ("Ks", "expblend", (0.03,), 1): "e395957d6c796fc52e34bb7af9579010c59c43cdac427a570ff2f3c1e9093b54",
    ("Ks", "strongly", (0.5,), 1): "1cdf2f3bbf480d62ff0aa9acc7da1fcc2da2117cfd712c2b0729b913f168fb0c",
    ("Ks", "wang", (0.5, 1.0), 1): "4a143640349e98293fc6ae5d9fec063f25df5fb76841b55be3e3d5565b7184c5",
    ("Sc", "janowski", (1.0, -1.0), 1): "f6f921fc458d5f37107646f3986b0526b5698998f492f33f633bb6861dac4260",
    ("Sc", "sakaguchi", (0.25,), 1): "8a267ff81edf70c211bda0185bc08d3007e62147daa43d914b7c2e23bcbc137d",
    ("Sc", "lemniscate", (0.5,), 1): "8e8250d92379b8711d4765c91cb5dadef5d73c12afdf9ef96504b4c901313c35",
    ("Sc", "expblend", (0.03,), 1): "26b9f8622a0bf802b461b5e4f6364ca29148648971b7ef63b5f4156bc60d9583",
    ("Sc", "strongly", (0.5,), 1): "e251b3c1cf71e0fcd1d4d55daa11abc34dd030c8c1af833ae094c37e2ef3bb90",
    ("Sc", "wang", (0.5, 1.0), 1): "56331988c45f96b7618e59e2efe1f2c0abde1df59a14475383e57e17584e7277",
    ("Cc", "janowski", (1.0, -1.0), 1): "094b674a71248692d7503014888d5f9c476df4aa6c94322fcc22585f76e0957f",
    ("Cc", "sakaguchi", (0.25,), 1): "9043f482339e6acc541261d4f8aeb65d55e207008f54e63a126a8e9082eaa5a2",
    ("Cc", "lemniscate", (0.5,), 1): "3b8f42d9982556b92af549288a3707839a25959df9ed02a487afc0b838b90c36",
    ("Cc", "expblend", (0.03,), 1): "69e43c5aaed0678f243bd75e174ecf7bf9a0d013de069a737d6e76b3e717170c",
    ("Cc", "strongly", (0.5,), 1): "e6c69d9d07a39bbafb0b168e90abc8a023fc187cf9b78acca7d2cb393659d887",
    ("Cc", "wang", (0.5, 1.0), 1): "8443ba16b1bdb305dbf23921308c0d53b8c8638504e8d519126a9c44cc7b8725",
    ("Cs", "janowski", (1.0, -1.0), 1): "37c263eb32e461955a58726087634d2fabed5764733a7474e00a341b6ed35a24",
    ("Cs", "sakaguchi", (0.25,), 1): "b5b0c16273b700b94af24061f5a62de8b8cc6c40a630bb72a8c13e0b16e04b08",
    ("Cs", "lemniscate", (0.5,), 1): "9a3fad137b01f191a59a34111d68114f0c7f1cff28f61463c9fbd80bc9f7d7d4",
    ("Cs", "expblend", (0.03,), 1): "6c6f2584dc5570ad22a47b882b3c6781a02fead9c7e04ef703fe689026d18816",
    ("Cs", "strongly", (0.5,), 1): "168f4195eb2b6474b78e0ea74c3f069a3c639db2491f27d451f5048c16e80e01",
    ("Cs", "wang", (0.5, 1.0), 1): "330aa09fc8ba1d11e14d9651b4e9c6a8a13b6ce4730517803b2aef112f454919",
    ("Ks", "janowski", (1.0, -1.0), 2): "11c97b29a2ebbd199f85d05b3ff4dd70c7a27ad4bf126adcd9fd47533776dda4",
    ("Ks", "sakaguchi", (0.25,), 2): "7cb2c1a0681b787695ce16e5081595b61947393ef537feac558ab0b59fdb20a1",
    ("Ks", "lemniscate", (0.5,), 2): "208b0cdfa5bfbbcc476ea56951c4449656a187205781f06f6c712e8567c2440e",
    ("Ks", "expblend", (0.03,), 2): "3354b2c4f9de8e2add0cc0d7d4335aec931ae0b5fccc70a847b007f9fefd39b5",
    ("Ks", "strongly", (0.5,), 2): "3a7d31b69552b1e85da1f01f2a9986feda5c418648dc49efdbcf762e976a2740",
    ("Ks", "wang", (0.5, 1.0), 2): "69e00bdb0b8cbecb91175433f6dbd640ab41a421a5ea52e5fbac05f87eae0b30",
    ("Sc", "janowski", (1.0, -1.0), 2): "0b2f15c186a11f3dfde2c55db151da75ad3b8a626b726c5ca0046d6a918ead5c",
    ("Sc", "sakaguchi", (0.25,), 2): "07e64bc19e5d9f3dcb838185c17a98949997cebc06409db1f5631eac4b2bde0e",
    ("Sc", "lemniscate", (0.5,), 2): "c245e46c81f46e029ad19c3e3c6813ae3d7edeab185871b4ec88461e0b8e5be9",
    ("Sc", "expblend", (0.03,), 2): "61dd3b8aae7d2c7cca9bb00116db3ce2d4f5a27fb436e5a2db5033134af0152e",
    ("Sc", "strongly", (0.5,), 2): "db565b28fd6150d1b937eb7628b05aec355d8f8c33bfee76e3be7ebb63af69ef",
    ("Sc", "wang", (0.5, 1.0), 2): "d0b724d141c9516ff8fa34423bcbb7eb796f07f399897fdf5ca130156edfab79",
    ("Cc", "janowski", (1.0, -1.0), 2): "39a1807ee6b2132be984c6c2c935b8c76ad60dcb349197fb16e634caa12a3a2a",
    ("Cc", "sakaguchi", (0.25,), 2): "9b9b1d75fe5acc85033df093907651f9edfba5657244cb653f80c6d0f6117dac",
    ("Cc", "lemniscate", (0.5,), 2): "791470a946531d6d178433ddb6b022c98ecb8cf28866456a2d5e825b48565ad3",
    ("Cc", "expblend", (0.03,), 2): "7cbab4d3a6af1a7500d55a1be25b32a81a629fea41d404a95cc24cbd1fd5e918",
    ("Cc", "strongly", (0.5,), 2): "6afdea054841e4a2a1944887e0b7edf421bb2c377609e415747051f359bfaef2",
    ("Cc", "wang", (0.5, 1.0), 2): "341da91a6458072856e67dd1528b0e24ad7f74427c5c27c94cfbed6c523b0e17",
    ("Cs", "janowski", (1.0, -1.0), 2): "01777988da56a399b55554642f707a9e5ca4b4c8e4a2e7235b571241ce91befe",
    ("Cs", "sakaguchi", (0.25,), 2): "45ed8e5c67201ed0084107a1232cb471a94c8401a96e5b90d4f2a67728fa250d",
    ("Cs", "lemniscate", (0.5,), 2): "f294e2428a31ce44a6f12450abd6b61119b79fc75f2a97a503619812f7200dcb",
    ("Cs", "expblend", (0.03,), 2): "146d01ae4bd72180e13af2335335ac9a1bb6a36ca6993af8923012cfc297c017",
    ("Cs", "strongly", (0.5,), 2): "e728052753e1b9d9cff3ede16c2c1fb940ac8f9e2d06be1cabb5003f1d802156",
    ("Cs", "wang", (0.5, 1.0), 2): "35e4a38a3f59575ee36ebc0d2a21a6ded44a119a276e71305aa94487a6e2d705",
}

#: sha256 of _json(run_campaign(Sc, lemniscate(0.5), 100, 3, r=0.34)), the
#: one pinned report whose bytes depend on the drawn self-maps;
#: test_failing_campaign_failures_match_oracle rebuilds its failures.
FAILING_CAMPAIGN_PIN = "2455d01d2f0f06ed68fec91cc96ff7c216fda001ca00903218767456e5e29fb7"

#: sha256 of _json(run_campaign(Ks, strongly(0.5), 100, 3, r=0.45)): 37
#: failing draws over powers 1-4 of a phi with a full series, whose members
#: test_blocks_leave_the_bytes also compares bit for bit
FULL_SERIES_FAILING_PIN = "733cb7c08557f5b566b312eaf6acbb74a15d87c3222f96465a9f7d5e5e8dcd69"

#: sha256 of _json(run_campaign(class, strongly(0.5), 100, 3, r=r)) for the
#: nested classes, keyed by (class, r), with the number of failing draws (all
#: of powers 1-2): the drawn Cc and Cs members, whose passing reports are set
#: by sample 0 alone
NESTED_FAILING_PINS = {
    ("Cc", 0.55): ("92616fab7d26857e00f97cd3e3f1a8b88ac08bbee2f4233f55288ce6cd10c54c", 15),
    ("Cs", 0.7): ("bbb1f04698324892f50c655cda3e0d79e0fd5a5b2726a1d15d282687d3481558", 12),
}


class TestCampaignBits:
    @pytest.mark.parametrize(
        "key", sorted(CAMPAIGN_PINS), ids=lambda k: f"{k[0]}-{PhiSpec(k[1], k[2]).label()}-seed{k[3]}"
    )
    def test_canonical_campaign_bytes(self, key):
        cls, family, params, seed = key
        report = run_campaign(ClassId(cls), PhiSpec(family, params), 100, seed)
        assert _sha(report) == CAMPAIGN_PINS[key]

    def test_failing_campaign_bytes(self):
        report = run_campaign(ClassId.SC, lemniscate(0.5), 100, 3, r=0.34)
        assert len(report.failures) == 14
        assert _sha(report) == FAILING_CAMPAIGN_PIN

    def test_full_series_failing_campaign_bytes(self):
        report = run_campaign(ClassId.KS, strongly(0.5), 100, 3, r=0.45)
        assert len(report.failures) == 37
        assert {f["power"] for f in report.failures} == {1, 2, 3, 4}
        assert _sha(report) == FULL_SERIES_FAILING_PIN

    @pytest.mark.parametrize("key", sorted(NESTED_FAILING_PINS), ids=lambda k: k[0])
    def test_nested_failing_campaign_bytes(self, key):
        pin, n_failing = NESTED_FAILING_PINS[key]
        report = run_campaign(ClassId(key[0]), strongly(0.5), 100, 3, r=key[1])
        assert len(report.failures) == n_failing
        assert {f["power"] for f in report.failures} == {1, 2}
        assert _sha(report) == pin

    def test_order_32_campaign_bytes(self):
        report = run_campaign(ClassId.CS, strongly(0.5), 100, 9, order=32)
        assert _sha(report) == "7d3d1f4a71d3c2c77e5a274facc095312a0616b8adc08ad6e80368bb96bac354"

    @pytest.mark.parametrize("block_rows", [4096, 4])
    @pytest.mark.parametrize(
        "rows, r, error, message",
        [
            ({3: 2.0, 5: 3.0}, None, InconsistencyError, "f'(0)=2.0"),
            ({6: 3.0, 9: 2.0}, None, InconsistencyError, "f'(0)=3.0"),
            ({2: np.nan, 3: 2.0}, None, DomainError, "must all be finite"),
            ({0: 2.0}, 0.95, InconsistencyError, "f'(0)=2.0"),  # row 0 is built before any check
            ({3: 2.0}, 0.95, PrecisionError, "truncation tail"),  # row 0's tail is checked first
            ({0: 2.0}, 1.5, InconsistencyError, "f'(0)=2.0"),
            ({2: 2.0}, 1.5, ParameterError, "0 < r < 1"),
        ],
        ids=[
            "unnormalized",
            "unnormalized-late",
            "non-finite",
            "row0-before-tail",
            "tail-before-row3",
            "row0-before-r",
            "r-before-row2",
        ],
    )
    def test_first_failing_sample_decides_the_error(self, monkeypatch, rows, r, error, message, block_rows):
        # the errors a member-by-member loop raises for the same corrupted samples
        build = verifier._members
        seen = [0]

        def corrupted(class_id, spec, eps, powers, order):
            members = build(class_id, spec, eps, powers, order)
            for i, value in rows.items():
                if seen[0] <= i < seen[0] + len(eps):
                    members[i - seen[0], 1] = value
            seen[0] += len(eps)
            return members

        monkeypatch.setattr(verifier, "_members", corrupted)
        monkeypatch.setattr(verifier, "_BLOCK_ROWS", block_rows)
        with pytest.raises(error, match=re.escape(message)):
            run_campaign(ClassId.CS, strongly(0.5), 10, 1, r=r)

    def test_blocks_leave_the_bytes(self, monkeypatch):
        build = verifier._members
        blocks = []

        def recorded(*args):
            blocks.append(build(*args))
            return blocks[-1].copy()

        def full_series_members():
            # a last-bit change in a member rarely moves a printed margin, so
            # the members of the full-series failing campaign are compared too
            blocks.clear()
            report = run_campaign(ClassId.KS, strongly(0.5), 100, 3, r=0.45)
            assert _sha(report) == FULL_SERIES_FAILING_PIN
            return np.concatenate(blocks).tobytes()

        monkeypatch.setattr(verifier, "_members", recorded)
        one_block = full_series_members()
        for block_rows in (7, 99, 1):  # 100 samples in blocks of 99 leave a one-row block
            monkeypatch.setattr(verifier, "_BLOCK_ROWS", block_rows)
            for key in sorted(CAMPAIGN_PINS):
                cls, family, params, seed = key
                assert _sha(run_campaign(ClassId(cls), PhiSpec(family, params), 100, seed)) == CAMPAIGN_PINS[key]
            report = run_campaign(ClassId.SC, lemniscate(0.5), 100, 3, r=0.34)
            assert _sha(report) == FAILING_CAMPAIGN_PIN
            for (cls, r), (pin, _) in NESTED_FAILING_PINS.items():
                assert _sha(run_campaign(ClassId(cls), strongly(0.5), 100, 3, r=r)) == pin
            assert full_series_members() == one_block

    def test_tail_guard_message(self):
        with pytest.raises(PrecisionError) as exc:
            run_campaign(ClassId.CS, strongly(0.5), 100, 1, r=0.95)
        assert str(exc.value) == "truncation tail ~5.32e-05 exceeds tolerance 1e-10 at r=0.95"

    def test_campaign_builds_no_series_objects(self, monkeypatch):
        keys = sorted(CAMPAIGN_PINS)
        for cls, family, params, seed in keys:  # warm the radius and target caches
            run_campaign(ClassId(cls), PhiSpec(family, params), 1, seed)

        def forbidden(*args, **kwargs):
            raise AssertionError("a campaign sample went through the series-object route")

        for name in ("mul", "evaluator"):  # the series composition is in tests/routes.py only
            monkeypatch.setattr(ps, name, forbidden)
        for key in keys:
            cls, family, params, seed = key
            assert _sha(run_campaign(ClassId(cls), PhiSpec(family, params), 100, seed)) == CAMPAIGN_PINS[key]


_DRAW_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3)


class TestStreamDraws:
    @pytest.mark.parametrize("seed", _DRAW_SEEDS)
    def test_draws_equal_numpy_streams(self, monkeypatch, seed):
        # sample i >= 1 takes doubles 2i-2 and 2i-1 of default_rng(seed), across blocks of 7
        build, drawn = verifier._members, []

        def recording(class_id, spec, eps, powers, order):
            drawn.extend(zip(eps.tolist(), powers.tolist()))
            return build(class_id, spec, eps, powers, order)

        monkeypatch.setattr(verifier, "_members", recording)
        monkeypatch.setattr(verifier, "_BLOCK_ROWS", 7)
        run_campaign(ClassId.SC, lemniscate(0.5), 300, seed)
        u = np.random.default_rng(seed).random((299, 2))
        assert drawn == [(1.0, 1)] + [(float(u0), 1 + int(np.floor(8.0 * u1))) for u0, u1 in u]


def _kernel_and_composed(
    class_id: ClassId, spec: PhiSpec, omega: SelfMap, order: int
) -> tuple[ps.TruncatedSeries, ps.TruncatedSeries]:
    """The class kernel and phi o omega as series objects."""
    composed = compose_with_selfmap(phi_series(spec, order), to_series(omega, order))
    if class_id is ClassId.KS:
        geometric = np.zeros(order)
        geometric[0::2] = 1.0  # 1/(1-z^2)
        return ps.TruncatedSeries(geometric), composed
    es = build_extremal(spec, order)
    return (es.K_prime if class_id is ClassId.CS else es.k_prime), composed


def _series_route(class_id: ClassId, spec: PhiSpec, omega: SelfMap, order: int) -> ps.TruncatedSeries:
    """The member built one series object at a time, as the defining
    identities read (the test oracle for the batch)."""
    kernel, composed = _kernel_and_composed(class_id, spec, omega, order)
    return series_transform(class_id, ps.mul(kernel, composed))


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u) for the unit roundoff u = 2^-53 of doubles."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def _rounding_bound(class_id: ClassId, spec: PhiSpec, omega: SelfMap, order: int) -> np.ndarray:
    """Coefficientwise bound on |batch row - series route|.

    Both routes sum the same products kernel[n - j] * composed[j], at most
    ``order`` of them, in different orders, so each sum is within
    gamma_order (|kernel| * |composed|)[n] of the exact one (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1).  The
    class transform divides each coefficient by n at most twice, which
    raises the factor to gamma_(order+2); the envelope itself is a sum of
    nonnegative terms, so its own rounding is the last 1/(1 - gamma).
    """
    kernel, composed = _kernel_and_composed(class_id, spec, omega, order)
    envelope = series_transform(class_id, ps.mul(ps.majorant(kernel), ps.majorant(composed))).coeffs
    g = _gamma(order + 2)
    return 2.0 * g / (1.0 - g) * envelope


def _margin_bound(error: np.ndarray, target: float, margins: tuple[float, float], r: float) -> float:
    """Bound on the difference of two margins target - sum |a_n| r^n whose
    coefficients differ by at most ``error``: the sums of the exact moduli
    differ by at most sum error_n r^n, the Horner sum of N coefficients is
    within gamma_2N of its exact value (Higham, 5.1), the row sum of the
    terms |a_n| r^n, each within gamma_3, within gamma_(N+2), and the
    subtraction from the target rounds once more."""
    carried = ps.evaluator(ps.TruncatedSeries(error))(r)
    sums = sum(target - margin for margin in margins)
    return carried + _gamma(2 * len(error) + 2) * (sums + 2.0 * target)


_OMEGAS = (SelfMap(1.0), SelfMap(0.0, 3), SelfMap(0.37, 2), SelfMap(0.91, 5), SelfMap(1.0, 70))


@pytest.mark.parametrize("spec", [lemniscate(0.5), strongly(0.5), janowski(0.5, 0.25)], ids=PhiSpec.label)
@pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
def test_one_member_is_one_batch_row(class_id, spec):
    r = 0.3
    eps = np.array([omega.epsilon for omega in _OMEGAS])
    powers = np.array([omega.power for omega in _OMEGAS])
    batch = verifier._members(class_id, spec, eps, powers, 64)
    bound = target_constant(class_id, spec)
    margins = verifier._margins(batch, bound, r)
    for i, omega in enumerate(_OMEGAS):
        sf = sample_member(class_id, spec, omega)
        assert sf.series.coeffs.tobytes() == batch[i].tobytes()
        assert check_bohr(sf, r) == (margins[i] >= -1e-9, margins[i])
        # the series route sums each product coefficient in another order
        want = _series_route(class_id, spec, omega, 64)
        error = _rounding_bound(class_id, spec, omega, 64)
        assert np.all(np.abs(batch[i] - want.coeffs) <= error)
        margin = bound - ps.evaluator(ps.majorant(want), 1e-10)(r)
        assert abs(margins[i] - margin) <= _margin_bound(error, bound, (margins[i], margin), r)


def test_the_boxes_cover_every_family():
    assert set(FAMILY_BOXES) == set(FAMILIES)


@settings(max_examples=100, deadline=None)
@given(
    spec=BOX_SPECS,
    class_id=st.sampled_from(list(ClassId)),
    epsilon=st.floats(0.0, 1.0),
    power=st.integers(1, 70),
)
def test_batch_rows_over_the_family_boxes(spec, class_id, epsilon, power):
    omega = SelfMap(epsilon, power)
    eps, powers = np.array([epsilon, 1.0, 0.5]), np.array([power, 1, 3])
    row = verifier._members(class_id, spec, eps, powers, 64)[0]
    want = _series_route(class_id, spec, omega, 64)
    assert np.all(np.abs(row - want.coeffs) <= _rounding_bound(class_id, spec, omega, 64))
    # the row is under test, not the distance target, so its quadrature is skipped
    with mock.patch.object(verifier, "target_constant", return_value=1.0):
        sf = sample_member(class_id, spec, omega)
    assert sf.series.coeffs.tobytes() == row.tobytes()


def test_failing_campaign_failures_match_oracle():
    # the draws of the pinned failing campaign, each member built and checked on its own
    spec, r = lemniscate(0.5), 0.34
    u = np.random.default_rng(3).random((99, 2))
    omegas = [SelfMap(1.0)] + [SelfMap(float(u0), 1 + int(np.floor(8.0 * u1))) for u0, u1 in u]
    bound = target_constant(ClassId.SC, spec)
    want, errors = [], []
    for i, omega in enumerate(omegas):
        member = _series_route(ClassId.SC, spec, omega, 64)
        margin = bound - ps.evaluator(ps.majorant(member), 1e-10)(r)
        if margin < -1e-9:
            want.append({"index": i, "epsilon": omega.epsilon, "power": omega.power, "margin": margin})
            errors.append(_rounding_bound(ClassId.SC, spec, omega, 64))
    report = run_campaign(ClassId.SC, spec, 100, 3, r=r)
    assert len(want) == 14 and {f["power"] for f in want} == {1, 2}
    assert [{**f, "margin": None} for f in report.failures] == [{**f, "margin": None} for f in want]
    # the batch sums each margin in another order than the oracle's Horner rule
    for got, failure, error in zip(report.failures, want, errors):
        margins = (got["margin"], failure["margin"])
        assert abs(margins[0] - margins[1]) <= _margin_bound(error, bound, margins, r)


def _members_by_power(
    class_id: ClassId, spec: PhiSpec, eps: np.ndarray, powers: np.ndarray, order: int
) -> np.ndarray:
    """``verifier._members`` with the composed rows filled for all rows of
    one power at once and the kernel's Toeplitz matrix cut from a full
    gather by ``np.triu`` (the test oracle for its scatter and its padded
    gather, which must give the same bits)."""
    order = ps.as_order(order)
    phi = phi_series(spec, order).coeffs
    kernel = kernel_series(class_id, spec, order)
    composed = np.zeros((max(len(eps), 2), order))
    composed[: len(eps), 0] = phi[0]
    live = (eps != 0.0) & (powers < order)
    for m in np.unique(powers[live]).tolist():
        rows = np.flatnonzero(live & (powers == m))
        k_max = (order - 1) // m
        composed[rows, ::m] = phi[: k_max + 1] * eps[rows, None] ** np.arange(k_max + 1)
    index = np.arange(order)
    toeplitz = np.triu(kernel.coeffs[index - index[:, None]])
    products = (composed @ toeplitz)[: len(eps)]
    weights = np.arange(1, order + 1)
    members = np.zeros((len(eps), order + 1))
    members[:, 1:] = products / weights
    if class_id.nested:
        members[:, 1:] /= weights
    return members


def _fixed_draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The first rows of one fixed draw of 100 self-maps: the identity,
    epsilon 0 and 1, every power 1-70 and power 300, past every order tested."""
    eps = np.random.default_rng(24).random(100)
    eps[[0, 5, 40]] = 1.0
    eps[[1, 9, 70]] = 0.0
    powers = np.concatenate(([1, 2, 300], np.arange(1, 71), [300], np.arange(3, 29)))
    return eps[:rows], powers[:rows]


_CANONICAL_SPECS = [PhiSpec(family, params) for family, params in BENCH_INPUTS.CANONICAL]


@pytest.mark.parametrize("order", [1, 2, 3, 64, 1024])
def test_toeplitz_is_the_index_gather(order):
    # the strided-window copy holds the bytes, and the C layout, of the
    # gather padded[(order - 1) - j + n] over an order x order index grid,
    # and of numpy's sliding_window_view(padded, order)[::-1]
    kernel = np.random.default_rng(order).standard_normal(order)
    padded = np.concatenate((np.zeros(order - 1), kernel))
    index = np.arange(order)
    want = padded[(order - 1) - index[:, None] + index]
    got = verifier._toeplitz(kernel)
    assert got.flags.c_contiguous and got.flags.owndata
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    windows = np.lib.stride_tricks.sliding_window_view(padded, order)[::-1]
    assert np.ascontiguousarray(windows).tobytes() == want.tobytes()


class TestMembersEqualThePowerLoop:
    @pytest.mark.parametrize("spec", _CANONICAL_SPECS, ids=PhiSpec.label)
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_canonical_specs(self, class_id, spec):
        eps, powers = _fixed_draw(100)
        want = _members_by_power(class_id, spec, eps, powers, 64)
        assert verifier._members(class_id, spec, eps, powers, 64).tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 8, 9, 64, 65, 256])
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_orders_and_row_counts(self, class_id, order):
        for rows in (1, 2, 7, 100):
            eps, powers = _fixed_draw(rows)
            want = _members_by_power(class_id, strongly(0.5), eps, powers, order)
            assert verifier._members(class_id, strongly(0.5), eps, powers, order).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 7, 100])
    @pytest.mark.parametrize("class_id", list(ClassId), ids=lambda c: c.value)
    def test_margins_are_the_fsum_of_the_terms(self, class_id, rows):
        # Each route forms a term |a_n| r^n within gamma_3 of the exact one
        # (r^n to one ulp, then a rounded product).  The row sum adds at most
        # gamma_(N-1) of the terms (Higham, 4.2), fsum half an ulp, and each
        # subtraction from the target one rounding: gamma_(N+8) bounds them all.
        eps, powers = _fixed_draw(rows)
        members = verifier._members(class_id, strongly(0.5), eps, powers, 64)
        target, bound = target_constant(class_id, strongly(0.5)), _gamma(members.shape[1] + 8)
        for r in (0.05, 0.3, 0.6):
            got = verifier._margins(members, target, r)
            for i, row in enumerate(np.abs(members).tolist()):
                terms = math.fsum(a * r**n for n, a in enumerate(row))
                assert abs(got[i] - (target - terms)) <= bound * (terms + target)
                # a row summed alone gives the bits it gets in its block
                assert verifier._margins(members[i : i + 1], target, r)[0].hex() == got[i].hex()


@settings(max_examples=50, deadline=None)
@given(
    spec=BOX_SPECS,
    class_id=st.sampled_from(list(ClassId)),
    maps=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 70)), min_size=1, max_size=9),
    order=st.sampled_from((8, 9, 64)),
)
def test_members_equal_the_power_loop_over_the_family_boxes(spec, class_id, maps, order):
    eps, powers = np.array([e for e, _ in maps]), np.array([m for _, m in maps])
    want = _members_by_power(class_id, spec, eps, powers, order)
    assert verifier._members(class_id, spec, eps, powers, order).tobytes() == want.tobytes()


@pytest.mark.slow
def test_members_peak_memory_within_the_power_loop():
    # the largest block at order 1024; phi and the kernel are cached before tracing
    u = np.random.default_rng(1).random((4096, 2))
    eps, powers = u[:, 0], 1 + (8.0 * u[:, 1]).astype(np.int64)
    verifier._members(ClassId.KS, strongly(0.5), eps[:2], powers[:2], 1024)
    built, peaks = [], []
    for build in (verifier._members, _members_by_power):
        tracemalloc.start()
        built.append(build(ClassId.KS, strongly(0.5), eps, powers, 1024))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert built[0].tobytes() == built[1].tobytes()
    assert peaks[0] <= peaks[1]
