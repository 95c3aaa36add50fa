import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import balanced_branch, rand_nonspecial_spectrum
from paramod import spectra
from paramod.exactnum import ExactError, Scalar, sc
from paramod.spectra import (
    MCBranch,
    SpectrumError,
    SpectrumRank2,
    character_poly,
    elm_spectrum,
    elm_weight,
    mc_applicability_failures,
    mc_spectrum,
)
from paramod.stability import WeightVector

QUARTER = SpectrumRank2([(sc("1/4"), sc("-1/4"))] * 5, 0)


class TestSpectrum:
    def test_fuchs_enforced(self):
        with pytest.raises(SpectrumError):
            SpectrumRank2([(sc(1), sc(0))] * 5, 0)
        SpectrumRank2([(sc(1), sc(0))] * 5, -5)
        # decided on cleared integers, the message keeps the Scalar sum,
        # Gaussian parts included
        with pytest.raises(SpectrumError, match=r"^Fuchs relation fails: d \+ sum = 5/6\+1/3\*i$"):
            SpectrumRank2([(sc("1/2"), Scalar.parse("1/3+1/3*i"))] + [(sc(0), sc(0))] * 4, 0)
        with pytest.raises(SpectrumError, match=r"^Fuchs relation fails: d \+ sum = 1/2\*i$"):
            SpectrumRank2([(Scalar.parse("1/2*i"), sc(0))] + [(sc(0), sc(0))] * 4, 0)

    def test_quarter_example_non_special(self):
        preds = QUARTER.predicates()
        assert preds == {
            "kostov_generic": True,
            "non_resonant": True,
            "non_special": True,
        }

    def test_fifth_not_kostov(self):
        nu = SpectrumRank2([(sc("1/5"), sc("-1/5"))] * 5, 0)
        preds = nu.predicates()
        assert not preds["kostov_generic"]
        assert preds["non_resonant"]

    def test_zero_spectrum(self):
        nu = SpectrumRank2([(sc(0), sc(0))] * 5, 0)
        preds = nu.predicates()
        assert not preds["kostov_generic"]
        assert not preds["non_resonant"]

    def test_json_roundtrip(self):
        assert SpectrumRank2.from_json(QUARTER.to_json()) == QUARTER

    def test_genericity_decided_once(self, monkeypatch):
        # a spectrum keeps genericity's answer: a C*-limit and the limit of
        # its gauge image share one spectrum and clear it once
        nu = SpectrumRank2(rand_nonspecial_spectrum(random.Random(5), d=1).nu, 1)
        calls = []
        real = spectra.clear_denominators
        monkeypatch.setattr(spectra, "clear_denominators", lambda v: calls.append(v) or real(v))
        first = nu.genericity()
        assert nu.genericity() is first and nu.predicates()["non_special"]
        assert len(calls) == 1
        # equality and the hash read only the eigenvalues and the degree
        twin = SpectrumRank2(nu.nu, nu.d)
        assert twin == nu and hash(twin) == hash(nu)
        assert twin.genericity() == first and len(calls) == 2


class TestElmWeight:
    def test_first_slot(self):
        w = WeightVector.uniform(sc("1/4"))
        out = elm_weight(w, 0)
        assert out == WeightVector(["3/4", "1/4", "1/4", "1/4", "1/4"])

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=10)
    def test_involution(self, j):
        w = WeightVector(["1/3", "2/5", "1/7", "5/6", "1/2"])
        assert elm_weight(elm_weight(w, j), j) == w

    def test_zero_weight_rejected(self):
        w = WeightVector([0, "1/2", "1/2", "1/2", "1/2"])
        with pytest.raises(SpectrumError):
            elm_weight(w, 0)

    def test_commutes_with_permutation(self):
        w = WeightVector(["1/3", "2/5", "1/7", "5/6", "1/2"])
        perm = [3, 0, 4, 1, 2]
        wp = WeightVector([w.w[perm[i]] for i in range(5)])
        j = 2
        left = elm_weight(wp, j)
        right = elm_weight(w, perm[j])
        assert left == WeightVector([right.w[perm[i]] for i in range(5)])

    def test_point_index_outside_range_rejected(self):
        # a negative index must not be read from the end (-1 as point 5)
        w = WeightVector(["1/8", "1/9", "1/7", "1/11", "1/13"])
        for j in (-1, -5, 5):
            with pytest.raises(ExactError):
                elm_weight(w, j)


class TestElmSpectrum:
    def test_quarter_slot(self):
        out = elm_spectrum(QUARTER, 0)
        assert out.d == -1
        assert out.nu[0] == (sc("3/4"), sc("1/4"))
        assert out.nu[1] == (sc("1/4"), sc("-1/4"))

    def test_double_application_is_shift(self):
        out = elm_spectrum(elm_spectrum(QUARTER, 2), 2)
        assert out.d == -2
        assert out.nu[2] == (sc("5/4"), sc("3/4"))

    def test_predicate_preservation(self):
        rng = random.Random(19)
        for _ in range(25):
            nu = rand_nonspecial_spectrum(rng, d=rng.choice([-1, 0, 1, 2]))
            j = rng.randrange(5)
            out = elm_spectrum(nu, j)
            preds = out.predicates()
            assert preds["kostov_generic"] and preds["non_resonant"]

    def test_point_index_outside_range_rejected(self):
        for j in (-1, -5, 5):
            with pytest.raises(ExactError):
                elm_spectrum(QUARTER, j)

    def test_resonant_in_resonant_out(self):
        nu = SpectrumRank2([(sc(0), sc(0))] * 5, 0)
        out = elm_spectrum(nu, 2)
        assert out.nu[2] == (sc(1), sc(0))
        assert not out.predicates()["non_resonant"]


class TestMiddleConvolution:
    def test_quarter_all_plus(self):
        branch = MCBranch("+++++", [sc("-1/4")] * 5, QUARTER)
        assert branch.beta_k == sc("5/4")
        out = mc_spectrum(QUARTER, branch)
        assert out.d == 0
        for triple in out.triples:
            assert triple == (sc("-1/4"), sc("-1/4"), sc("1/2"))
        assert out.fuchs_sum().is_zero()

    def test_branch_constraints(self):
        branch = MCBranch("+++++", [sc("-1/4")] * 5, QUARTER)
        assert (branch.beta_k + sum(branch.beta_h, sc(0))).is_zero()
        assert (branch.beta_k + sum(branch.beta_v, sc(0))).is_zero()
        for i in range(5):
            assert branch.beta_u[i] == branch.beta_k - branch.beta_h[i] - branch.beta_v[i]

    def test_bad_beta_v_rejected(self):
        with pytest.raises(SpectrumError):
            MCBranch("+++++", [sc(0)] * 5, QUARTER)

    def test_random_rank_degree_fuchs(self):
        rng = random.Random(101)
        done = 0
        while done < 30:
            d = rng.choice([-1, 0, 1])
            nu = rand_nonspecial_spectrum(rng, d=d)
            sigma = "".join(rng.choice("+-") for _ in range(5))
            branch = balanced_branch(sigma, nu)
            if mc_applicability_failures(nu, branch):
                continue
            out = mc_spectrum(nu, branch)
            done += 1
            assert out.d == d
            assert (out.fuchs_sum() + sc(d)).is_zero()
            for a, b, c in out.triples:
                assert a == b and c != a

    def test_applicability_guard(self):
        # integer beta_k: sigma negating an integral sum pattern
        nu = SpectrumRank2(
            [(sc("1/2"), sc("-1/2"))] * 4 + [(sc("1/3"), sc("-1/3"))], 0
        )
        # sum of plus eigenvalues = 2 + 1/3 not integer, fine; craft one that is
        bad = SpectrumRank2([(sc("1/2"), sc("-1/2"))] * 4 + [(sc(0), sc(0))], 0)
        branch_sigma = "+++++"
        bh = [-(bad.plus(i)) for i in range(5)]
        bk = -sum(bh, sc(0))
        assert bk.is_integer()
        with pytest.raises(SpectrumError):
            mc_spectrum(bad, MCBranch(branch_sigma, [-bk / 5] * 5, bad))


class TestCharacterPoly:
    def test_origin(self):
        assert character_poly(0, 0, 0, 0, 0) == sc(16)

    def test_all_twos(self):
        assert character_poly(2, 2, 2, 2, 2) == sc(48)

    def test_cyclic_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            vals = [Scalar.rational(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(5)]
            x, y, z, u, v = vals
            assert character_poly(x, y, z, u, v) == character_poly(y, z, u, v, x)
