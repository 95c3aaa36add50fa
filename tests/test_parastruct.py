import random
from collections import Counter
from itertools import combinations

import pytest

from helpers import (
    oracle_classify,
    oracle_decomposition_coords,
    oracle_is_decomposable,
    oracle_quotient_coords,
    oracle_stabilizer_dim,
    rand_config,
    rand_gaussian,
    rand_mixed_config,
)
from paramod.exactnum import INF, ExactError, Poly, Scalar, monic_from_roots, sc
from paramod.parastruct import (
    NPOINTS,
    B,
    BPRIME,
    BundleSplitType,
    MarkedConfiguration,
    ParabolicStructure,
    StratumError,
    StratumId,
    _normalize_projective,
    act,
    all_bprime_orbit_labels,
    bprime_generic_representative,
    bprime_orbit_representatives,
    classify,
    find_automorphism,
    is_decomposable,
    is_simple,
    orbit_equal,
    quotient_coords,
    stabilizer_dim,
)

CFG = MarkedConfiguration([0, 1, 2, 3, 4])


def struct(bundle, flags):
    return ParabolicStructure(bundle, flags)


def rand_finite_structure(rng, bundle=B):
    return struct(bundle, [Scalar.rational(rng.randrange(-60, 60), rng.randrange(1, 8)) for _ in range(5)])


def rand_params(rng, bundle=B):
    a = Scalar.rational(rng.choice([x for x in range(-9, 10) if x != 0]), rng.randrange(1, 5))
    rest = 2 if bundle == B else 4
    return [a] + [Scalar.rational(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(rest)]


class TestPoleProducts:
    def test_match_monic_from_roots(self):
        rng = random.Random(2201)
        for _ in range(200):
            cfg = rand_config(rng)
            node, partials = cfg.pole_products()
            expected = monic_from_roots(cfg.z)
            assert (node.coeffs, node.bound) == (expected.coeffs, expected.bound)
            assert len(partials) == 5
            for i, p in enumerate(partials):
                expected = monic_from_roots(cfg.z[:i] + cfg.z[i + 1 :])
                assert (p.coeffs, p.bound) == (expected.coeffs, expected.bound)
            assert cfg.pole_products() is cfg.pole_products()

    def test_not_part_of_equality(self):
        fresh = MarkedConfiguration([0, 1, 2, 3, 4])
        CFG.pole_products()
        assert fresh == CFG and hash(fresh) == hash(CFG)


class TestAction:
    def test_translation(self):
        s = struct(B, [0, 5, sc("1/2"), 7, INF])
        out = act(B, [1, 0, 1], s, CFG)
        assert out.flags[0].value == Scalar(1)
        assert out.flags[1].value == Scalar(6)
        assert out.flags[2].value == Scalar.rational(3, 2)
        assert out.flags[4].is_infinity()

    def test_scaling(self):
        s = struct(B, [2, 4, 6, 8, 10])
        out = act(B, [2, 0, 0], s, CFG)
        assert [u.value for u in out.flags] == [sc(x) for x in [1, 2, 3, 4, 5]]

    def test_bprime_cubic(self):
        s = struct(BPRIME, [0, 0, 0, 0, 0])
        out = act(BPRIME, [1, 1, 0, 0, 0], s, CFG)
        assert [u.value for u in out.flags] == [sc(x) for x in [0, 1, 8, 27, 64]]

    def test_rejects_zero_scale(self):
        s = struct(B, [0, 0, 0, 0, 0])
        with pytest.raises(Exception):
            act(B, [0, 1, 1], s, CFG)
        with pytest.raises(ExactError, match=r"^split type requires d0 <= d1$"):
            BundleSplitType(1, 0)

    def test_group_law(self):
        rng = random.Random(3)
        s = rand_finite_structure(rng)
        p = rand_params(rng)
        q = rand_params(rng)
        once = act(B, q, act(B, p, s, CFG), CFG)
        # composite parameters: u -> (q.shift + (p.shift + u)/p.a)/q.a
        a = p[0] * q[0]
        b = q[1] * p[0] + p[1]
        c = q[2] * p[0] + p[2]
        assert once == act(B, [a, b, c], s, CFG)


class TestDecomposable:
    def test_all_zero(self):
        ok, witness = is_decomposable(struct(B, [0, 0, 0, 0, 0]), CFG)
        assert ok and witness.is_zero()

    def test_collinear(self):
        ok, witness = is_decomposable(struct(B, [0, 1, 2, 3, 4]), CFG)
        assert ok
        assert witness(sc(3)) == sc(3)

    def test_bump_is_indecomposable(self):
        ok, witness = is_decomposable(struct(B, [0, 0, 0, 0, 1]), CFG)
        assert not ok and witness is None

    def test_bprime_rank5_certificate(self):
        s = bprime_generic_representative(CFG)
        ok, _ = is_decomposable(s, CFG)
        assert not ok
        from paramod.exactnum import Mat

        rows = [
            [sc(1), z, z**2, z**3, u.value]
            for z, u in zip(CFG.z, s.flags)
        ]
        assert Mat(rows).rank() == 5

    def test_bprime_cubic_flags_decompose(self):
        s = struct(BPRIME, [sc(z) ** 3 for z in [0, 1, 2, 3, 4]])
        ok, witness = is_decomposable(s, CFG)
        assert ok and witness.degree() == 3

    def test_many_infinities_decompose(self):
        s = struct(B, [INF, INF, INF, 0, 17])
        ok, _ = is_decomposable(s, CFG)
        assert ok


class TestQuotientCoords:
    def test_single_support(self):
        # u = e_1 maps to [1 : z_1 : z_1^2] up to scale
        for i in range(5):
            flags = [1 if j == i else 0 for j in range(5)]
            coords = quotient_coords(struct(B, flags), CFG)
            zi = CFG.z[i]
            scale = coords[0]
            assert [c / scale for c in coords] == [sc(1), zi, zi * zi]

    def test_decomposable_rejected(self):
        with pytest.raises(StratumError):
            quotient_coords(struct(B, [0, 0, 0, 0, 0]), CFG)

    def test_action_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            s = rand_finite_structure(rng)
            ok, _ = is_decomposable(s, CFG)
            if ok:
                continue
            g = rand_params(rng)
            c1 = quotient_coords(s, CFG)
            c2 = quotient_coords(act(B, g, s, CFG), CFG)
            # tuples agree projectively: scale is 1/a exactly
            a = g[0]
            assert all(x / a == y for x, y in zip(c1, c2))

    def test_one_infinity_coords(self):
        s = struct(B, [INF, 0, 0, 0, 1])
        coords = quotient_coords(s, CFG)
        assert len(coords) == 2 and any(not c.is_zero() for c in coords)


class TestClassify:
    def test_u2(self):
        c = classify(struct(B, [1, 0, 0, 0, 0]), CFG)
        assert c.family == "U2" and not c.decomposable
        assert c.coords == (sc(1), sc(0), sc(0))

    def test_uij_double_prime(self):
        s = struct(B, [INF, INF, 0, 1, 3])
        c = classify(s, CFG)
        assert c.family == "UijDoublePrime" and c.indices == (0, 1)

    def test_uij_prime(self):
        s = struct(B, [INF, INF, 0, 1, 2])
        assert classify(s, CFG).family == "UijPrime"

    def test_uplus(self):
        c = classify(struct(B, [INF, INF, INF, 0, 0]), CFG)
        assert c.family == "Uplus" and c.decomposable

    def test_bprime_generic(self):
        c = classify(bprime_generic_representative(CFG), CFG)
        assert c.family == "BprimeGenericIndec"

    def test_classify_action_invariant(self):
        rng = random.Random(23)
        for _ in range(30):
            pattern = rng.sample(range(5), rng.randrange(0, 3))
            flags = [
                INF if i in pattern else Scalar.rational(rng.randrange(-30, 30), rng.randrange(1, 6))
                for i in range(5)
            ]
            s = struct(B, flags)
            g = rand_params(rng)
            c1, c2 = classify(s, CFG), classify(act(B, g, s, CFG), CFG)
            assert c1.label() == c2.label()
            assert c1.coords == c2.coords or (
                c1.coords is not None and c1.coords == c2.coords
            )


class TestOrbits:
    def test_33_orbits(self):
        labels = all_bprime_orbit_labels(CFG)
        assert len(labels) == len(set(labels)) == 33
        reps = bprime_orbit_representatives(CFG)
        assert all(s.bundle == BPRIME for s in reps)
        assert reps[0] == bprime_generic_representative(CFG)
        assert [classify(s, CFG).label() for s in reps] == labels

    def test_action_orbit_reflexive(self):
        rng = random.Random(5)
        for bundle in (B, BPRIME):
            for _ in range(10):
                s = rand_finite_structure(rng, bundle)
                g = rand_params(rng, bundle)
                assert orbit_equal(s, act(bundle, g, s, CFG), CFG)

    def test_coordinate_structures_distinct(self):
        s1 = struct(B, [1, 0, 0, 0, 0])
        s2 = struct(B, [0, 1, 0, 0, 0])
        assert not orbit_equal(s1, s2, CFG)

    def test_bprime_generic_single_orbit(self):
        rng = random.Random(17)
        s1 = bprime_generic_representative(CFG)
        found = 0
        while found < 5:
            s2 = rand_finite_structure(rng, BPRIME)
            if classify(s2, CFG).family != "BprimeGenericIndec":
                continue
            found += 1
            assert orbit_equal(s1, s2, CFG)
            g = find_automorphism(s1, s2, CFG)
            assert g is not None
            assert act(BPRIME, g, s1, CFG) == s2

    def test_found_automorphism_maps(self):
        rng = random.Random(29)
        for _ in range(10):
            s = rand_finite_structure(rng)
            g = rand_params(rng)
            s2 = act(B, g, s, CFG)
            h = find_automorphism(s, s2, CFG)
            assert h is not None and act(B, h, s, CFG) == s2

    def test_uij_double_prime_single_orbit(self):
        rng = random.Random(37)
        for i, j in [(0, 1), (1, 3), (2, 4)]:
            samples = []
            while len(samples) < 4:
                flags = [
                    INF if k in (i, j) else Scalar.rational(rng.randrange(-20, 20), rng.randrange(1, 5))
                    for k in range(5)
                ]
                s = struct(B, flags)
                if classify(s, CFG).family == "UijDoublePrime":
                    samples.append(s)
            base = samples[0]
            for other in samples[1:]:
                assert orbit_equal(base, other, CFG)
                g = find_automorphism(base, other, CFG)
                assert g is not None and act(B, g, base, CFG) == other

    def test_uij_prime_single_orbit(self):
        rng = random.Random(41)
        samples = []
        for _ in range(4):
            r0 = Scalar.rational(rng.randrange(-9, 9), rng.randrange(1, 4))
            r1 = Scalar.rational(rng.randrange(-9, 9), rng.randrange(1, 4))
            flags = [INF, INF] + [r0 + r1 * CFG.z[k] for k in (2, 3, 4)]
            samples.append(struct(B, flags))
        assert all(classify(s, CFG).family == "UijPrime" for s in samples)
        base = samples[0]
        for other in samples[1:]:
            assert orbit_equal(base, other, CFG)

    def test_prime_and_double_prime_disjoint(self):
        s1 = struct(B, [INF, INF, 0, 1, 2])
        s2 = struct(B, [INF, INF, 0, 1, 3])
        assert not orbit_equal(s1, s2, CFG)

    def test_distinct_coordinates_mean_distinct_orbits(self):
        # independent check via the explicit automorphism solver
        rng = random.Random(47)
        seen = []
        while len(seen) < 6:
            s = rand_finite_structure(rng)
            dec, _ = is_decomposable(s, CFG)
            if dec:
                continue
            seen.append(s)
        for a in range(len(seen)):
            for b in range(a + 1, len(seen)):
                ca = classify(seen[a], CFG).coords
                cb = classify(seen[b], CFG).coords
                g = find_automorphism(seen[a], seen[b], CFG)
                if ca == cb:
                    assert g is not None
                else:
                    assert g is None

    def test_quotient_coordinate_map_is_onto(self):
        # any nonzero projective triple arises from some all-finite structure
        from paramod.exactnum import Mat, divided_difference_weights

        rng = random.Random(43)
        w = divided_difference_weights(CFG.z)
        rows = [
            [wi * (zi**k) for zi, wi in zip(CFG.z, w)] for k in range(3)
        ]
        for _ in range(10):
            target = [
                Scalar.rational(rng.randrange(-9, 10), rng.randrange(1, 5))
                for _ in range(3)
            ]
            if all(t.is_zero() for t in target):
                continue
            sol = Mat(rows).solve_affine(target)
            assert sol is not None
            u, _ = sol
            s = struct(B, u)
            if is_decomposable(s, CFG)[0]:
                continue
            assert list(quotient_coords(s, CFG)) == target


class TestSimplicity:
    def test_indecomposable_is_simple(self):
        rng = random.Random(41)
        count = 0
        while count < 20:
            pattern = rng.sample(range(5), rng.randrange(0, 3))
            flags = [
                INF if i in pattern else Scalar.rational(rng.randrange(-30, 30), rng.randrange(1, 6))
                for i in range(5)
            ]
            s = struct(B, flags)
            dec, _ = is_decomposable(s, CFG)
            if dec:
                continue
            count += 1
            assert is_simple(s, CFG)

    def test_decomposable_not_simple_both_ways(self):
        rng = random.Random(43)
        for _ in range(20):
            pattern = rng.sample(range(5), rng.randrange(0, 3))
            flags = [
                INF if i in pattern else Scalar.rational(rng.randrange(-30, 30), rng.randrange(1, 6))
                for i in range(5)
            ]
            s = struct(B, flags)
            dec, _ = is_decomposable(s, CFG)
            assert is_simple(s, CFG) == (not dec)

    def test_collinear_witness(self):
        # u_i = z_i is fixed by the non-scalar automorphism u -> (z + u) / 2
        s = struct(B, [0, 1, 2, 3, 4])
        assert not is_simple(s, CFG)
        assert act(B, (2, 1, 0), s, CFG) == s

    def test_all_zero_flags(self):
        s = struct(B, [0, 0, 0, 0, 0])
        assert not is_simple(s, CFG)
        assert stabilizer_dim(s, CFG) == 2


def rand_mixed_structure(rng, bundle, cfg):
    """Gaussian flags with 0-5 of them infinite (none in half of the draws);
    35% of the draws put the flags on a random section of degree
    ``d1 - d0``, a third of those with one flag moved off it.  About 40% of
    the structures come out decomposable."""
    pattern = set(rng.sample(range(5), rng.choices(range(6), (10, 2, 1, 1, 1, 1))[0]))
    if rng.random() < 0.35:
        section = Poly([rand_gaussian(rng) for _ in range(bundle.d1 - bundle.d0 + 1)])
        flags = [section(z) for z in cfg.z]
        if rng.random() < 1 / 3:
            k = rng.randrange(5)
            flags[k] = flags[k] + rand_gaussian(rng)
    else:
        flags = [rand_gaussian(rng) for _ in range(5)]
    return struct(bundle, [INF if i in pattern else u for i, u in enumerate(flags)])


def outcome(fn, *args):
    try:
        return fn(*args)
    except StratumError as exc:
        return str(exc)


class TestDecompositionCoordsMatchOracles:
    def test_random_structures(self):
        rng = random.Random(2202)
        seen = {B: [0, 0], BPRIME: [0, 0]}
        for _ in range(60):
            cfg = rand_config(rng)
            for bundle in (B, BPRIME):
                for _ in range(8):
                    s = rand_mixed_structure(rng, bundle, cfg)
                    got, want = classify(s, cfg), oracle_classify(s, cfg)
                    assert tuple(got) == tuple(want)
                    assert got.label() == want.label()
                    assert got.coords_str() == want.coords_str()
                    ok, witness = is_decomposable(s, cfg)
                    ok_o, witness_o = oracle_is_decomposable(s, cfg)
                    assert ok == ok_o == got.decomposable
                    if ok:
                        assert (witness.coeffs, witness.bound) == (witness_o.coeffs, witness_o.bound)
                    else:
                        assert witness is witness_o is None
                    assert stabilizer_dim(s, cfg) == oracle_stabilizer_dim(s, cfg)
                    assert outcome(quotient_coords, s, cfg) == outcome(oracle_quotient_coords, s, cfg)
                    seen[bundle][ok] += 1
        for indec, dec in seen.values():
            assert 0.25 < dec / (indec + dec) < 0.65
        assert 0.3 < (seen[B][1] + seen[BPRIME][1]) / 960 < 0.55

    def test_other_split_types(self):
        rng = random.Random(2203)
        cfg = rand_config(rng)
        for bundle in (BundleSplitType(0, 2), BundleSplitType(1, 1)):
            for _ in range(20):
                s = rand_mixed_structure(rng, bundle, cfg)
                assert stabilizer_dim(s, cfg) == oracle_stabilizer_dim(s, cfg)
            for fn in (classify, oracle_classify, is_decomposable, oracle_is_decomposable):
                with pytest.raises(StratumError, match=r"^decomposability implemented for B and B' only$"):
                    fn(s, cfg)


def _expected_from_coords(s, coords):
    """``classify``, ``quotient_coords``, ``is_decomposable`` and
    ``stabilizer_dim`` as they follow from the Scalar decomposition
    coordinates of ``oracle_decomposition_coords``."""
    dec = all(c.is_zero() for c in coords)
    inf = s.infinity_indices()
    n_inf = len(inf)
    if s.bundle == BPRIME:
        if n_inf:
            stratum = StratumId("BprimeInf", inf, None, True)
        else:
            stratum = StratumId("BprimeGenericDec" if dec else "BprimeGenericIndec", (), None, dec)
    elif n_inf <= 1:
        stratum = StratumId("Ui" if n_inf else "U2", inf, None if dec else _normalize_projective(coords), dec)
    elif n_inf == 2:
        stratum = StratumId("UijPrime" if dec else "UijDoublePrime", inf, None, dec)
    else:
        stratum = StratumId("Uplus", inf, None, True)
    if s.bundle != B:
        quotient = "quotient coordinates live on B strata"
    elif n_inf > 1:
        quotient = "quotient coordinates require at most one infinite flag"
    elif dec:
        quotient = "decomposable structure has no quotient coordinates"
    else:
        quotient = coords
    b, n = s.bundle.d1 - s.bundle.d0, NPOINTS - n_inf
    return stratum, quotient, dec, b + 3 - n if n <= b else 1 + dec


class TestMomentCoordsMatchScalarOracle:
    """The decomposition coordinates on the integer flag moments give what
    the Scalar divided differences of ``oracle_decomposition_coords`` give:
    labels, projective and exact coordinates, decomposability and the
    stabilizer, on every infinite-flag pattern of B and B'."""

    @staticmethod
    def _flags(rng, bundle, cfg):
        # real and non-real flags at random, on a section of degree d1 - d0
        # (collinear on B, cubic on B'), and on one with a flag moved off it
        section = Poly([rand_gaussian(rng) for _ in range(bundle.d1 - bundle.d0 + 1)])
        on = [section(z) for z in cfg.z]
        k = rng.randrange(NPOINTS)
        return (
            [rand_gaussian(rng) for _ in range(NPOINTS)],
            [Scalar.rational(rng.randrange(-30, 31), rng.randrange(1, 7)) for _ in range(NPOINTS)],
            on,
            [u + 1 if i == k else u for i, u in enumerate(on)],
        )

    def test_every_infinite_pattern(self):
        rng = random.Random(2801)
        cfgs = [MarkedConfiguration(["-7/3", "-1/2", "0", "5/4", "9/5"]), CFG]
        cfgs += [rand_mixed_config(rng) for _ in range(3)]
        seen = Counter()
        for cfg in cfgs:
            for bundle in (B, BPRIME):
                for n_inf in range(NPOINTS + 1):
                    for pattern in combinations(range(NPOINTS), n_inf):
                        for flags in self._flags(rng, bundle, cfg):
                            s = struct(bundle, [INF if i in pattern else u for i, u in enumerate(flags)])
                            coords = oracle_decomposition_coords(s, cfg)
                            stratum, quotient, dec, dim = _expected_from_coords(s, coords)
                            got = classify(s, cfg)
                            assert got == stratum and got.label() == stratum.label(), s
                            assert outcome(quotient_coords, s, cfg) == quotient, s
                            assert is_decomposable(s, cfg)[0] == dec, s
                            assert stabilizer_dim(s, cfg) == dim, s
                            real = all(c.is_real() for c in coords)
                            seen[bundle.name, min(n_inf, 3 if bundle == B else 1), dec, real] += 1
        # both outcomes on every pattern that has coordinates, with non-real
        # coordinates among the indecomposable ones
        for bundle, n_infs in ((B, (0, 1, 2)), (BPRIME, (0,))):
            for n_inf in n_infs:
                assert seen[bundle.name, n_inf, True, True] > 0, (bundle, n_inf)
                assert seen[bundle.name, n_inf, False, False] > 0, (bundle, n_inf)
        assert seen["B", 3, True, True] > 0 and seen["Bprime", 1, True, True] > 0


class TestAutomorphismEdges:
    # expected values generated with the action equations solved by Mat
    def test_all_flags_infinite(self):
        for bundle, expected, dim in ((B, ("1", "0", "0"), 4), (BPRIME, ("1", "0", "0", "0", "0"), 6)):
            s = struct(bundle, [INF] * 5)
            assert tuple(str(x) for x in find_automorphism(s, s, CFG)) == expected
            assert stabilizer_dim(s, CFG) == dim

    def test_one_finite_flag(self):
        for bundle, expected, dim in ((B, ("1", "0", "2"), 3), (BPRIME, ("1", "0", "0", "0", "2"), 5)):
            s1 = struct(bundle, [INF] * 4 + [3])
            s2 = struct(bundle, [INF] * 4 + [5])
            g = find_automorphism(s1, s2, CFG)
            assert tuple(str(x) for x in g) == expected
            assert act(bundle, g, s1, CFG) == s2
            assert stabilizer_dim(s1, CFG) == stabilizer_dim(s2, CFG) == dim
