import hashlib
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
    to_series,
)

from _bench_inputs import BENCH_INPUTS

from bohrcc import power_series as ps
from bohrcc import verifier
from bohrcc.catalog import FAMILIES, PhiSpec, janowski, lemniscate, phi_series, sakaguchi, strongly
from bohrcc.errors import DomainError, InconsistencyError, ParameterError, PrecisionError
from bohrcc.extremal import build_extremal
from bohrcc.solver import ClassId, kernel_series, nested_series_transform, solve_radius, target_constant
from bohrcc.verifier import SelfMap, check_bohr, run_campaign, sample_member


class TestSelfMap:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SelfMap(1.5, 1)
        with pytest.raises(ParameterError):
            SelfMap(0.5, 0)

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
        assert allclose(sf.series, ps.shift_up(es.k_prime), 1e-12)  # h = z k'

    def test_ks_identity_base_case_is_geometric(self):
        # zf' = G(z) phi(z) with G = z/(1-z^2), phi = (1+z)/(1-z)
        # collapses to f = z/(1-z): every coefficient 1
        sf = sample_member(ClassId.KS, sakaguchi(0.0), SelfMap(1.0), order=16)
        assert np.allclose(sf.series.coeffs[1:], np.ones(15), atol=1e-12)

    def test_zero_map_divides_coefficients(self):
        # phi(0 * z) == 1, so the Sc construction gives a_n = h_n / n with h = z k'
        spec = janowski(1, -1)
        h = ps.shift_up(build_extremal(spec).k_prime)
        sf = sample_member(ClassId.SC, spec, SelfMap(0.0, 1))
        n = np.arange(1, 64)
        assert np.allclose(sf.series.coeffs[1:64], h.coeffs[1:] / n, atol=1e-13)

    def test_unnormalized_member_is_rejected(self):
        # an order-1 Ks integrand loses its only coefficient to the division by z
        with pytest.raises(InconsistencyError, match=r"f\(0\)=0.0, f'\(0\)=0.0"):
            sample_member(ClassId.KS, sakaguchi(0.0), SelfMap(1.0), order=1)

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
        maj = ps.majorant(sf.series)
        vals = [ps.eval_at(maj, r) for r in np.linspace(0.0, 1 / 3, 9)]
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
        a = run_campaign(ClassId.CC, lemniscate(0.5), 25, seed=5).to_json()
        b = run_campaign(ClassId.CC, lemniscate(0.5), 25, seed=5).to_json()
        assert a == b
        c = run_campaign(ClassId.CC, lemniscate(0.5), 25, seed=6).to_json()
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


def _sha(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


#: sha256 of run_campaign(class, spec, 100, seed).to_json() for the 24
#: canonical pairs, recorded with the member-by-member construction that
#: built each sample through the series composition (now
#: ``routes.compose_with_selfmap``), ``power_series.mul`` and ``eval_at``.
CAMPAIGN_PINS = {
    ("Ks", "janowski", (1.0, -1.0), 1): "f23b10dbe6072b9344265d6fcfb2aef83752810775aa75e004de868d53dc47ab",
    ("Ks", "sakaguchi", (0.25,), 1): "1d78e976ce67e736ea86e3df7fdcab10c1c85380a427509acad3dda9be816db1",
    ("Ks", "lemniscate", (0.5,), 1): "f0e5ef96523ebdde3eef98e20256bd8893781bbe8e54f8e2817873f1e05c054b",
    ("Ks", "expblend", (0.03,), 1): "2793886e8ac917ed7beb6614838887ac7e76e149eb7487d565a816aeb95199b3",
    ("Ks", "strongly", (0.5,), 1): "1cdf2f3bbf480d62ff0aa9acc7da1fcc2da2117cfd712c2b0729b913f168fb0c",
    ("Ks", "wang", (0.5, 1.0), 1): "4a143640349e98293fc6ae5d9fec063f25df5fb76841b55be3e3d5565b7184c5",
    ("Sc", "janowski", (1.0, -1.0), 1): "f6f921fc458d5f37107646f3986b0526b5698998f492f33f633bb6861dac4260",
    ("Sc", "sakaguchi", (0.25,), 1): "8a267ff81edf70c211bda0185bc08d3007e62147daa43d914b7c2e23bcbc137d",
    ("Sc", "lemniscate", (0.5,), 1): "b2d211fefc9dff0abf4fab473226322fb34990fdb9ed63da33f349e2f5557a15",
    ("Sc", "expblend", (0.03,), 1): "b7e4f5dec59086ec821bf167ec64f6ca2fdf697dd7972b62169be04cfcdc97c5",
    ("Sc", "strongly", (0.5,), 1): "b61e5aeffc964e384668fba41003dca56a599c2203dd01e3c95d50277de7f513",
    ("Sc", "wang", (0.5, 1.0), 1): "56331988c45f96b7618e59e2efe1f2c0abde1df59a14475383e57e17584e7277",
    ("Cc", "janowski", (1.0, -1.0), 1): "094b674a71248692d7503014888d5f9c476df4aa6c94322fcc22585f76e0957f",
    ("Cc", "sakaguchi", (0.25,), 1): "d5a1d520e3209c250760534d8d40c3ea9b0499873be7c486bb224259b93e6185",
    ("Cc", "lemniscate", (0.5,), 1): "65b88954d513ced2fde02b50f3e9050b74559a946f9f5e73a83072c2f0d64f72",
    ("Cc", "expblend", (0.03,), 1): "69e43c5aaed0678f243bd75e174ecf7bf9a0d013de069a737d6e76b3e717170c",
    ("Cc", "strongly", (0.5,), 1): "e6c69d9d07a39bbafb0b168e90abc8a023fc187cf9b78acca7d2cb393659d887",
    ("Cc", "wang", (0.5, 1.0), 1): "8443ba16b1bdb305dbf23921308c0d53b8c8638504e8d519126a9c44cc7b8725",
    ("Cs", "janowski", (1.0, -1.0), 1): "e8bc5966089b1f7630106cab28a2a3b118d11a6f808afdd657049607f7825ff5",
    ("Cs", "sakaguchi", (0.25,), 1): "b5b0c16273b700b94af24061f5a62de8b8cc6c40a630bb72a8c13e0b16e04b08",
    ("Cs", "lemniscate", (0.5,), 1): "297fc2b50f1cf1671ea114f036af4afb67c332ffa4a54911a18ea5e77a686f87",
    ("Cs", "expblend", (0.03,), 1): "dc6acfdc04f728b2f72ccfe7b20b4f5dbfe188a91611abb076f9353bba493daf",
    ("Cs", "strongly", (0.5,), 1): "9f7c6365e776e09d418b7a6f2d840a35f87c7cfbd301296520d39d6eff899edc",
    ("Cs", "wang", (0.5, 1.0), 1): "330aa09fc8ba1d11e14d9651b4e9c6a8a13b6ce4730517803b2aef112f454919",
    ("Ks", "janowski", (1.0, -1.0), 2): "d4b1c4770d8b343c678adc922e91e3b8441093294c4397b89954fd5eb05f7665",
    ("Ks", "sakaguchi", (0.25,), 2): "362e0eda6891481503fdcee01d87136bb87e5fb37f23a40217b092d4532dffbd",
    ("Ks", "lemniscate", (0.5,), 2): "208b0cdfa5bfbbcc476ea56951c4449656a187205781f06f6c712e8567c2440e",
    ("Ks", "expblend", (0.03,), 2): "075b8da68f0c43c90d5fbf5b229fe29dee02c47d5de442a00e01fda6577e2842",
    ("Ks", "strongly", (0.5,), 2): "3a7d31b69552b1e85da1f01f2a9986feda5c418648dc49efdbcf762e976a2740",
    ("Ks", "wang", (0.5, 1.0), 2): "69e00bdb0b8cbecb91175433f6dbd640ab41a421a5ea52e5fbac05f87eae0b30",
    ("Sc", "janowski", (1.0, -1.0), 2): "0b2f15c186a11f3dfde2c55db151da75ad3b8a626b726c5ca0046d6a918ead5c",
    ("Sc", "sakaguchi", (0.25,), 2): "07e64bc19e5d9f3dcb838185c17a98949997cebc06409db1f5631eac4b2bde0e",
    ("Sc", "lemniscate", (0.5,), 2): "a77a8e7833c81ef7e18c96866b7e05709dc124dc05c3bc60435b9c5aabd78a7a",
    ("Sc", "expblend", (0.03,), 2): "77955d295600a4c4473edb108da001ca35f1ce1a1c379a9e923a802f539da7a3",
    ("Sc", "strongly", (0.5,), 2): "4dee4dde7d87e195a059eefad84ab1072ad9b6a033ea174d89968b24c161a94c",
    ("Sc", "wang", (0.5, 1.0), 2): "d0b724d141c9516ff8fa34423bcbb7eb796f07f399897fdf5ca130156edfab79",
    ("Cc", "janowski", (1.0, -1.0), 2): "39a1807ee6b2132be984c6c2c935b8c76ad60dcb349197fb16e634caa12a3a2a",
    ("Cc", "sakaguchi", (0.25,), 2): "e949df0752b5bd53393de1d99233c7f4a2e0b92f266d13b263afdf3e4344349d",
    ("Cc", "lemniscate", (0.5,), 2): "203a146b0d9182042e808d1794d2c0e758aa758385be3914d3769ef576c0101a",
    ("Cc", "expblend", (0.03,), 2): "7cbab4d3a6af1a7500d55a1be25b32a81a629fea41d404a95cc24cbd1fd5e918",
    ("Cc", "strongly", (0.5,), 2): "6afdea054841e4a2a1944887e0b7edf421bb2c377609e415747051f359bfaef2",
    ("Cc", "wang", (0.5, 1.0), 2): "341da91a6458072856e67dd1528b0e24ad7f74427c5c27c94cfbed6c523b0e17",
    ("Cs", "janowski", (1.0, -1.0), 2): "be12ea05e68d6048c6485f5cf2f978be8886af715092d48a9be0cb20d7b3a9ad",
    ("Cs", "sakaguchi", (0.25,), 2): "45ed8e5c67201ed0084107a1232cb471a94c8401a96e5b90d4f2a67728fa250d",
    ("Cs", "lemniscate", (0.5,), 2): "506667e5f9309c4a6a0510aadcac56bce4837c92f514393b8ab2c6c4203c4220",
    ("Cs", "expblend", (0.03,), 2): "e20693be6d8943d245b4210fbf0226c43c64b52f95729b5b41d8ac9236abfaba",
    ("Cs", "strongly", (0.5,), 2): "c0b09d264d54b15fa5be836600db096430ac2e07bd5d31531d97fc77e0c9fa4a",
    ("Cs", "wang", (0.5, 1.0), 2): "35e4a38a3f59575ee36ebc0d2a21a6ded44a119a276e71305aa94487a6e2d705",
}

#: sha256 of run_campaign(Sc, lemniscate(0.5), 100, 3, r=0.34).to_json(), the
#: one pinned report whose bytes depend on the drawn self-maps;
#: test_failing_campaign_failures_match_oracle rebuilds its failures.
FAILING_CAMPAIGN_PIN = "b6d4483971dd956ea1b04929fa58fe089a7bcf3b23ba1ba624cd813430cf76e5"

#: sha256 of run_campaign(Ks, strongly(0.5), 100, 3, r=0.45).to_json(): 37
#: failing draws over powers 1-4 of a phi with a full series, whose members
#: test_blocks_leave_the_bytes also compares bit for bit
FULL_SERIES_FAILING_PIN = "95881268164a4ff471b3a90bad5a9506907fd188c50700b4e3881633cbbfd69e"

#: sha256 of run_campaign(class, strongly(0.5), 100, 3, r=r).to_json() for the
#: nested classes, keyed by (class, r), with the number of failing draws (all
#: of powers 1-2): the drawn Cc and Cs members, whose passing reports are set
#: by sample 0 alone
NESTED_FAILING_PINS = {
    ("Cc", 0.55): ("682ef9f8844a2b4e50c0f5d222a3dd3169e3dcf165fde3a29589f7dba49c27b7", 15),
    ("Cs", 0.7): ("0bbd37364938869745dc3dca1e5811ffe51360d2d2220d1f5cd08359150b1091", 12),
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
        assert _sha(report) == "22199d6a54142eaf0aefcf3e5c88a227eae1a2b7daa4ce30936623d223595016"

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

        for name in ("mul", "eval_at"):  # the series composition is in tests/routes.py only
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
        odd = np.zeros(order)
        odd[1::2] = 1.0
        return ps.TruncatedSeries(odd), composed
    es = build_extremal(spec, order)
    return (es.K_prime if class_id is ClassId.CS else es.k_prime), composed


def _transform(class_id: ClassId, product: ps.TruncatedSeries) -> ps.TruncatedSeries:
    """The class's termwise integration of kernel * (phi o omega)."""
    if class_id is ClassId.KS:
        return ps.integrate_from_zero(ps.divide_by_z(product))
    if class_id is ClassId.SC:
        return ps.integrate_from_zero(product)
    return nested_series_transform(product)


def _series_route(class_id: ClassId, spec: PhiSpec, omega: SelfMap, order: int) -> ps.TruncatedSeries:
    """The member built one series object at a time, as the defining
    identities read (the test oracle for the batch)."""
    kernel, composed = _kernel_and_composed(class_id, spec, omega, order)
    return _transform(class_id, ps.mul(kernel, composed))


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
    envelope = _transform(class_id, ps.mul(ps.majorant(kernel), ps.majorant(composed))).coeffs
    g = _gamma(order + 2)
    return 2.0 * g / (1.0 - g) * envelope


def _margin_bound(error: np.ndarray, target: float, margins: tuple[float, float], r: float) -> float:
    """Bound on the difference of two margins target - sum |a_n| r^n whose
    coefficients differ by at most ``error``: the sums of the exact moduli
    differ by at most sum error_n r^n, each Horner sum of N coefficients
    is within gamma_2N of its exact value (Higham, 5.1), and the
    subtraction from the target rounds once more."""
    carried = ps.eval_at(ps.TruncatedSeries(error), r)
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
        margin = bound - ps.eval_at(ps.majorant(want), r, tail_tol=1e-10)
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
    want = []
    for i, omega in enumerate(omegas):
        member = _series_route(ClassId.SC, spec, omega, 64)
        margin = bound - ps.eval_at(ps.majorant(member), r, tail_tol=1e-10)
        if margin < -1e-9:
            want.append({"index": i, "epsilon": omega.epsilon, "power": omega.power, "margin": margin})
    report = run_campaign(ClassId.SC, spec, 100, 3, r=r)
    assert len(want) == 14 and {f["power"] for f in want} == {1, 2}
    assert list(report.failures) == want


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
    if class_id is ClassId.KS:
        kernel = ps.shift_up(kernel)
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
    if class_id is ClassId.KS:
        members = np.zeros((len(eps), max(order, 2)))
        members[:, 1:order] = products[:, 1:] / weights[:-1]
    else:
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
    def test_margins_are_horner(self, class_id, rows):
        eps, powers = _fixed_draw(rows)
        members = verifier._members(class_id, strongly(0.5), eps, powers, 64)
        majorants, target = np.abs(members), target_constant(class_id, strongly(0.5))
        for r in (0.05, 0.3, 0.6):
            want = target - ps._horner(majorants[:, -1], majorants.T[-2::-1], r)
            got = verifier._margins(members, target, r)
            assert [m.hex() for m in got.tolist()] == [m.hex() for m in want.tolist()]


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
