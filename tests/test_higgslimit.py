import random
from itertools import product

import pytest

from helpers import (
    oracle_contact_rows,
    oracle_degenerate_candidate,
    oracle_fiber_dimension,
    oracle_inverse_degenerate_candidates,
    oracle_limit_point,
    oracle_walk_degenerate_candidate,
    poly_sub,
    rand_config,
    rand_nonspecial_spectrum,
    rand_nonspecial_weight,
    rand_rational,
    rand_structure,
    sample_universe,
    unit_kernels,
    universe_point,
)
from paramod import _kernel, higgslimit, stability
from paramod.connection import (
    FlatTriple,
    LogConnection,
    elm_triple,
    gauge_transform,
    solve_connection_space,
    validate_triple,
)
from paramod.exactnum import INF, ExactError, Mat, Poly, ProjectivePoint, Scalar, monic_from_roots, sc
from paramod.higgslimit import (
    FixedLocusPoint,
    HiggsError,
    StronglyParabolicHiggs,
    _degenerate_candidates,
    cstar_limit,
    fixed_component,
    fixedpoint_canonicalize,
    fixedpoint_from_higgs,
    fiber_dimension,
    gaussian_sqrt,
    higgs_is_stable,
    in_removed_locus,
    quadratic_roots,
    special_loci,
    theta_from_connection,
)
from paramod.parastruct import (
    B,
    BPRIME,
    BundleSplitType,
    MarkedConfiguration,
    ParabolicStructure,
    bprime_generic_representative,
    is_decomposable,
)
from paramod.spectra import SpectrumRank2
from paramod.stability import WeightVector, _cleared_weights, contact_rows, is_stable

CFG = MarkedConfiguration([0, 1, 2, 3, 4])
W_SMALL = WeightVector(["1/8", "1/9", "1/7", "1/11", "1/13"])


def f0_datum():
    s = ParabolicStructure(BPRIME, [0, 0, 0, 0, 0])
    return StronglyParabolicHiggs(BPRIME, s, Poly([1], bound=0), CFG)


def b_datum(theta, flags):
    return StronglyParabolicHiggs(B, ParabolicStructure(B, flags), theta, CFG)


def _upper_entry(residues):
    """A connection on B whose only nonzero residue entries are the (12)
    entries ``residues``."""
    return LogConnection(B, [((0, a12), (0, 0)) for a12 in residues])


class TestGaussianSqrt:
    def test_rational_square(self):
        assert gaussian_sqrt(sc("9/4")) == sc("3/2")

    def test_negative(self):
        assert gaussian_sqrt(sc(-4)) == Scalar(0, 2)

    def test_gaussian(self):
        s = Scalar.parse("3/5+4/5*i")
        r = gaussian_sqrt(s * s)
        assert r is not None and r * r == s * s

    def test_non_square(self):
        assert gaussian_sqrt(sc(2)) is None
        assert gaussian_sqrt(Scalar.parse("1+i")) is None

    def test_pure_imaginary(self):
        assert gaussian_sqrt(Scalar.parse("2*i")) == Scalar.parse("1+i")
        r = gaussian_sqrt(Scalar.parse("-2*i"))
        assert r is not None and r * r == Scalar.parse("-2*i")

    def test_squares_always_recovered(self):
        rng = random.Random(53)
        for _ in range(60):
            s = Scalar.rational(
                rng.randrange(-20, 21), rng.randrange(1, 9)
            ) + Scalar.rational(rng.randrange(-20, 21), rng.randrange(1, 9)) * Scalar(0, 1)
            sq = s * s
            r = gaussian_sqrt(sq)
            assert r is not None and r * r == sq


    def test_principal_root_property(self):
        # squares of random Gaussian rationals and random Gaussian rationals:
        # every root found squares back and is the principal one
        rng = random.Random(71)
        found = 0
        for k in range(400):
            x = Scalar.gaussian(
                rng.randrange(-40, 41), rng.randrange(1, 12),
                rng.randrange(-40, 41) * (k % 5 != 0), rng.randrange(1, 12),
            )
            for s in (x * x, x, -x * x):
                r = gaussian_sqrt(s)
                if s == x * x or s == -x * x:
                    assert r is not None
                if r is None:
                    continue
                found += 1
                assert r * r == s
                re, im, _ = r._t
                assert re > 0 or (re == 0 and im >= 0), (s, r)
        assert found > 800
        for s in (sc(2), sc(-3), Scalar(0, 1), Scalar.parse("1/2"), Scalar.parse("-1/3*i")):
            assert gaussian_sqrt(s) is None


class TestQuadraticRoots:
    def test_split(self):
        roots = quadratic_roots(Poly([2, -3, 1], bound=2))
        assert set(roots) == {ProjectivePoint.finite(1), ProjectivePoint.finite(2)}

    def test_degree_drop(self):
        roots = quadratic_roots(Poly([-3, 1, 0], bound=2))
        assert set(roots) == {ProjectivePoint.finite(3), INF}
        assert quadratic_roots(Poly([5, 0, 0], bound=2)) == (INF, INF)

    def test_irrational(self):
        assert quadratic_roots(Poly([-2, 0, 1], bound=2)) is None


class TestHiggsData:
    def test_strong_parabolicity_enforced(self):
        theta = Poly([1], bound=2)  # nowhere vanishing on the marked set
        with pytest.raises(HiggsError):
            b_datum(theta, [INF, 0, 0, 0, 0])
        b_datum(theta, [0, 0, 0, 0, 0])

    def test_upper_choice_at_zero_allowed(self):
        theta = Poly([0, 1], bound=2)  # vanishes at z_1 = 0
        h = b_datum(theta, [INF, 0, 0, 0, 0])
        assert h.marked_zeros == (0,)

    def test_f0_stability(self):
        h = f0_datum()
        assert higgs_is_stable(h, CFG, W_SMALL)

    def test_b_lower_flags_stability_flip(self):
        theta = Poly([1], bound=2)
        h = b_datum(theta, [0, 0, 0, 0, 0])
        assert higgs_is_stable(h, CFG, W_SMALL)
        big = WeightVector(["1/2", "1/2", "1/3", "1/3", "1/3"])
        assert not higgs_is_stable(h, CFG, big)

    def test_zero_theta_reduces_to_parabolic(self):
        h = b_datum(Poly.zero(2), [0, 0, 0, 0, 1])
        w = WeightVector.uniform(sc("4/15"))
        assert higgs_is_stable(h, CFG, w) == is_stable(h.structure, CFG, w).stable

    def test_zero_theta_not_fixed_in_small_regime(self):
        h = b_datum(Poly.zero(2), [0, 0, 0, 0, INF])
        assert fixed_component(h) == "NotFixed"


class TestThetaFromConnection:
    def test_valid_connection_degree_two(self):
        rng = random.Random(3)
        while True:
            s = ParabolicStructure(
                B, [rand_rational(rng, -9, 9, 4) for _ in range(5)]
            )
            if not is_decomposable(s, CFG)[0] and all(
                not u.value.is_zero() for u in s.flags
            ):
                break
        nu = rand_nonspecial_spectrum(rng, d=1)
        space = solve_connection_space(s, CFG, nu)
        theta = theta_from_connection(space.connection_at([1, 2]), CFG)
        assert theta.bound == 2

    def test_zero_offdiagonal(self):
        from paramod.connection import LogConnection

        plus = [sc("1/3"), sc("-1/3"), sc("1/2"), sc("-1/2"), sc(0)]
        minus = [sc("-1/5")] * 5
        conn = LogConnection(B, [((p, 0), (0, m)) for p, m in zip(plus, minus)])
        assert theta_from_connection(conn, CFG).is_zero()

    def test_raw_numerator_cancellation(self):
        # residues (1, -1, 0, 0, 0): the top coefficient cancels but the next
        # one survives, so the numerator has degree 3, not 2: such residue
        # data is not the upper entry of any holomorphic connection
        from paramod.exactnum import monic_from_roots, ExactError

        raw = _upper_entry([1, -1, 0, 0, 0]).numerator(0, 1, CFG)
        expected = poly_sub(monic_from_roots([1, 2, 3, 4]), monic_from_roots([0, 2, 3, 4]))
        assert raw == expected
        assert raw.degree() == 3
        with pytest.raises(ExactError):
            raw.shrink(2)

    def test_balanced_numerator_degree_two(self):
        raw = _upper_entry([1, -2, 1, 0, 0]).numerator(0, 1, CFG)
        assert raw.degree() <= 2


class TestFixedLocusPointJson:
    def test_flag_choice_keys_are_the_point_numerals(self):
        base = {"component": "F1", "chart": "bottom", "theta": ["0", "-9/2", "1"]}
        for k in range(1, 6):
            p = FixedLocusPoint.from_json({**base, "flagChoice": {str(k): "upper"}})
            assert p.flag_choice == ((k - 1, "upper"),)
        # another spelling of point 1 would collapse two choices into one
        for choice in ({"01": "upper"}, {"+1": "upper"}, {" 1": "upper"}, {"1 ": "upper"},
                       {"0": "lower"}, {"6": "lower"}, {"1": "lower", "01": "upper"}):
            with pytest.raises(ExactError):
                FixedLocusPoint.from_json({**base, "flagChoice": choice})

    def test_one_datum_per_point(self):
        # theta would be dropped silently beside the exceptional datum
        both = {"component": "F1", "chart": "bottom", "exceptional_at": 2, "tangent": "7/2",
                "theta": ["1", "1", "1"]}
        with pytest.raises(ExactError):
            FixedLocusPoint.from_json(both)
        exceptional = {k: v for k, v in both.items() if k != "theta"}
        assert FixedLocusPoint.from_json(exceptional).exceptional_index == 1
        line = {k: v for k, v in both.items() if k not in ("exceptional_at", "tangent")}
        assert FixedLocusPoint.from_json(line).theta == (sc(1), sc(1), sc(1))

    def test_zero_line_theta_rejected(self):
        # one direct construction per check of the constructor, in its order
        theta = (sc(1), sc(0), sc(1))
        cases = [
            (("F2",), {}, "component must be F0 or F1, not 'F2'"),
            (("F1", "side", theta), {}, "chart must be top or bottom, not 'side'"),
            (("F1", "top"), {}, "an F1 point carries either a quadratic or an exceptional datum"),
            (("F1", "bottom"), {"exceptional_index": 0}, "exceptional points carry a tangent coordinate"),
            (("F1", "top", theta), {"tangent": INF}, "an F1 line point carries theta, not a tangent"),
            (("F1", "top", theta[:2]), {}, "theta takes three coefficients"),
            (("F1", "top", (sc(0), sc(0), sc(0))), {}, "a line datum needs a nonzero theta"),
        ]
        for args, kwargs, message in cases:
            with pytest.raises(ExactError) as err:
                FixedLocusPoint(*args, **kwargs)
            assert str(err.value) == message


class TestSpecialLoci:
    def test_counts(self):
        loci = special_loci(CFG)
        assert len(loci.points) == 15
        assert len([1 for (i, j) in loci.points if i < j]) == 10
        assert len([1 for (i, j) in loci.points if i == j]) == 5
        assert len(loci.lines) == 5

    def test_incidence(self):
        loci = special_loci(CFG)
        for (i, j), pt in loci.points.items():
            for k in (i, j):
                dual = loci.lines[k]["dual"]
                pairing = sum((a * b for a, b in zip(pt, dual)), sc(0))
                assert pairing.is_zero()

    def test_line_parametrization_lands_on_line(self):
        loci = special_loci(CFG)
        for i in range(5):
            pt = loci.lines[i]["parametrization"](sc("7/3"))
            dual = loci.lines[i]["dual"]
            assert sum((a * b for a, b in zip(pt, dual)), sc(0)).is_zero()


def interior_point(flag_choice=()):
    theta = Poly([sc("7/2"), 1, 1], bound=2)  # no marked zeros on 0..4
    for z in CFG.z:
        assert not theta(z).is_zero()
    from paramod.parastruct import _normalize_projective

    return FixedLocusPoint("F1", "bottom", _normalize_projective(theta.coeffs), None, None, flag_choice)


class TestCanonicalize:
    def test_interior_goes_top(self):
        p = interior_point()
        q = fixedpoint_canonicalize(p, CFG)
        assert q.chart == "top"
        assert fixedpoint_canonicalize(q, CFG) == q

    def test_marked_line_swaps_to_exceptional(self):
        from paramod.parastruct import _normalize_projective
        from paramod.exactnum import monic_from_roots

        theta = monic_from_roots([CFG.z[0], sc("9/2")]).shrink(2)
        p = FixedLocusPoint("F1", "bottom", _normalize_projective(theta.coeffs), None, None, ((0, "lower"),))
        q = fixedpoint_canonicalize(p, CFG)
        assert q.chart == "top"
        assert q.exceptional_index == 0
        assert q.tangent == ProjectivePoint.finite(sc("9/2"))
        assert fixedpoint_canonicalize(q, CFG) == q

    def test_intersection_point_fixed(self):
        p = FixedLocusPoint(
            "F1", "bottom", None, 2, ProjectivePoint.finite(CFG.z[2]), ((2, "upper"),)
        )
        assert fixedpoint_canonicalize(p, CFG) == p

    def test_double_marked_pair_stays_separated(self):
        top = FixedLocusPoint(
            "F1", "top", None, 1, ProjectivePoint.finite(CFG.z[1]), ((1, "lower"),)
        )
        bottom = FixedLocusPoint(
            "F1", "bottom", None, 1, ProjectivePoint.finite(CFG.z[1]), ((1, "upper"),)
        )
        assert fixedpoint_canonicalize(top, CFG) == top
        assert fixedpoint_canonicalize(bottom, CFG) == bottom
        assert top != bottom

    def test_two_marked_zero_class(self):
        from paramod.parastruct import _normalize_projective
        from paramod.exactnum import monic_from_roots

        theta = monic_from_roots([CFG.z[1], CFG.z[3]]).shrink(2)
        line_top = FixedLocusPoint("F1", "top", _normalize_projective(theta.coeffs), None, None)
        exc_hi = FixedLocusPoint(
            "F1", "bottom", None, 3, ProjectivePoint.finite(CFG.z[1])
        )
        c1 = fixedpoint_canonicalize(line_top, CFG)
        c2 = fixedpoint_canonicalize(exc_hi, CFG)
        assert c1 == c2
        assert c1.exceptional_index == 1
        assert c1.chart == "bottom"

    def test_gamma_membership(self):
        p = FixedLocusPoint(
            "F1", "bottom", None, 2, ProjectivePoint.finite(sc("11/7"))
        )
        assert in_removed_locus(p, CFG)
        q = FixedLocusPoint(
            "F1", "bottom", None, 2, ProjectivePoint.finite(CFG.z[4])
        )
        assert not in_removed_locus(q, CFG)


def solved_b_triple(rng, flags=None):
    if flags is None:
        while True:
            s = ParabolicStructure(
                B, [rand_rational(rng, -9, 9, 4) for _ in range(5)]
            )
            if not is_decomposable(s, CFG)[0]:
                break
    else:
        s = ParabolicStructure(B, flags)
    nu = rand_nonspecial_spectrum(rng, d=1)
    space = solve_connection_space(s, CFG, nu)
    params = [rand_rational(rng, -4, 4, 2) for _ in range(space.dim)]
    return space.triple_at(params)


class TestCstarLimit:
    def test_b_triple_limit_is_f1(self):
        rng = random.Random(11)
        t = solved_b_triple(rng)
        w = rand_nonspecial_weight(rng, total_below=1)
        res = cstar_limit(t, w)
        assert res.point.component == "F1"
        assert not res.higgs.theta.is_zero()
        assert higgs_is_stable(res.higgs, CFG, w)
        assert fixed_component(res.higgs) == "F1"
        assert len([c for c in res.candidates if c.stable]) == 1

    def test_bprime_limit_is_f0(self):
        rng = random.Random(13)
        s = bprime_generic_representative(CFG)
        nu = rand_nonspecial_spectrum(rng, d=1)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, 2])
        w = rand_nonspecial_weight(rng, total_below=1)
        res = cstar_limit(t, w)
        assert res.point.component == "F0"
        assert fixed_component(res.higgs) == "F0"

    def test_dichotomy(self):
        rng = random.Random(17)
        for _ in range(5):
            t = solved_b_triple(rng)
            w = rand_nonspecial_weight(rng, total_below=1)
            res = cstar_limit(t, w)
            theta_nonzero = not res.higgs.theta.is_zero()
            from paramod.stability import OnWallError

            try:
                underlying_stable = is_stable(res.higgs.structure, CFG, w).stable
            except OnWallError:
                continue
            assert theta_nonzero == (not underlying_stable)

    def test_gauge_invariance(self):
        rng = random.Random(19)
        t = solved_b_triple(rng)
        w = rand_nonspecial_weight(rng, total_below=1)
        base = cstar_limit(t, w)
        for _ in range(3):
            params = [
                Scalar.rational(rng.choice([1, 2, 3, -2]), rng.choice([1, 3])),
                rand_rational(rng, -3, 3, 2),
                rand_rational(rng, -3, 3, 2),
            ]
            t2 = gauge_transform(t, params)
            ok, violations = validate_triple(t2)
            assert ok, violations
            res2 = cstar_limit(t2, w)
            assert res2.point == base.point

    def test_rejects_large_weight(self):
        rng = random.Random(23)
        t = solved_b_triple(rng)
        w = WeightVector.uniform(sc("4/15"))
        with pytest.raises(HiggsError):
            cstar_limit(t, w)

    def test_idempotence_on_fixed_coordinates(self):
        rng = random.Random(29)
        t = solved_b_triple(rng)
        w = rand_nonspecial_weight(rng, total_below=1)
        res = cstar_limit(t, w)
        assert fixedpoint_canonicalize(res.point, CFG) == res.point


def _perturbed_collinear(rng, cfg):
    # flags on one line a + b z, a random subset of them moved off it
    a, b = rand_rational(rng), rand_rational(rng, -10, 10, 4)
    flags = [a + b * z for z in cfg.z]
    for i in rng.sample(range(5), rng.randrange(0, 3)):
        flags[i] = flags[i] + rand_rational(rng, 1, 9, 3)
    return ParabolicStructure(B, flags)


def _section_flags(rng, cfg):
    # u_i = r(z_i)/q(z_i) for random (q, r) of degrees (1, 2): the section
    # meets every flag, so the 5x5 (1, 2) contact matrix is singular
    q = Poly([rand_rational(rng, -6, 6, 3), rand_rational(rng, -4, 4, 2)])
    r = Poly([rand_rational(rng, -6, 6, 3) for _ in range(3)])
    flags = []
    for z in cfg.z:
        qv, rv = q(z), r(z)
        flags.append(INF if qv.is_zero() else ProjectivePoint.finite(rv / qv))
    return ParabolicStructure(B, flags)


def _small_flags(rng, n_inf):
    # flags of small Gaussian integers, n_inf of them infinite: three flags
    # on a line, four on a line and flags on a section come by coincidence
    pattern = set(rng.sample(range(5), n_inf))
    flags = [
        INF if i in pattern else Scalar(rng.randint(-1, 1), rng.randint(-1, 1) * (rng.randrange(4) == 0))
        for i in range(5)
    ]
    return ParabolicStructure(B, flags)


class TestDegenerateCandidates:
    """The degenerations read off divided differences of the flags match
    one inverse of the (1, 2) contact rows with the prefix walk for singular
    rows (``oracle_inverse_degenerate_candidates``), the walk alone
    (``oracle_walk_degenerate_candidate``, one kernel memo for the five j)
    and the rational nullspace path for every j: the same None, name and
    margin."""

    # per kind: the seed, the least number of candidates found and of Nones
    # among the 200 comparisons, and the number of the 40 structures whose
    # (1, 2) contact matrix M is singular, on which the inverse oracle takes
    # the walk.  The section flags make M singular, so the kernel of four
    # rows is ker M, spanned by the section, which meets every flag; a
    # random structure with three infinite flags has three rows
    # (1, z_i, 0, 0, 0) in a plane.  The small flags cycle through 0..5
    # infinite flags.
    KINDS = {
        "random": (101, 100, 40, 7),
        "collinear": (102, 40, 100, 22),
        "section": (103, 0, 150, 40),
        "small": (104, 60, 100, 20),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_rational_path(self, kind):
        seed, min_found, min_missing, want_singular = self.KINDS[kind]
        rng = random.Random(seed)
        found = missing = singular = 0
        for trial in range(40):
            cfg = rand_config(rng)
            if kind == "random":
                s = rand_structure(rng, B)
            elif kind == "collinear":
                s = _perturbed_collinear(rng, cfg)
            elif kind == "section":
                s = _section_flags(rng, cfg)
            else:
                s = _small_flags(rng, trial % 6)
            rows = oracle_contact_rows(s, cfg, 1, 2)
            singular += Mat([rows[i] for i in range(5)]).det().is_zero()
            w = rand_nonspecial_weight(rng, total_below=1)
            weights = _cleared_weights(w)
            got = [(c.name, c.margin, c.stable) for c in _degenerate_candidates(weights, s, cfg)]
            rows = contact_rows(s, cfg, 1, 2)
            by_inverse = [
                (c.name, c.margin, c.stable)
                for c in oracle_inverse_degenerate_candidates(weights, rows)
            ]
            kernels = unit_kernels(5)
            by_walk, by_oracle = [], []
            for j in range(5):
                cand = oracle_walk_degenerate_candidate(weights, j, rows, kernels)
                want = oracle_degenerate_candidate(s, cfg, w, j)
                assert (cand is None) == (want is None), (s, j)
                if want is None:
                    missing += 1
                else:
                    by_walk.append((cand.name, cand.margin, cand.stable))
                    by_oracle.append((want.name, want.margin, want.stable))
                    found += 1
            assert got == by_inverse == by_walk == by_oracle, s
        assert found >= min_found and missing >= min_missing, (found, missing)
        assert singular == want_singular

    def test_small_flags_match_inverse(self):
        # 600 structures of small Gaussian-integer flags with 0..5 infinite
        # flags against the inverse oracle, two in three on z = 0..4
        rng = random.Random(105)
        w = _cleared_weights(W_SMALL)
        counts = set()
        for trial in range(600):
            cfg = CFG if trial % 3 else rand_config(rng)
            s = _small_flags(rng, trial % 6)
            got = _degenerate_candidates(w, s, cfg)
            assert got == oracle_inverse_degenerate_candidates(w, contact_rows(s, cfg, 1, 2)), s
            counts.add((trial % 6, len(got)))
        # (number of infinite flags, number of candidates): none, some and
        # all five of the candidates the closed form allows are missed
        assert {(0, 0), (0, 3), (0, 5), (1, 0), (1, 3), (1, 5), (2, 0), (2, 2), (3, 0)} <= counts

    def test_limit_builds_no_kernel(self, monkeypatch):
        # cstar_limit on B triples, one of them with singular contact rows
        # (the section (z + 1, z^2)), and on a B' triple runs no contact
        # kernel and no elimination; the counters do see both elsewhere, in
        # a stability decision that folds the full contact set's kernel at
        # degree -1 and in the solve on the even split
        rng = random.Random(107)
        flag_sets = (None, [INF, 1, 2, 3, 5], [INF, INF, 1, 2, 5], [0, "1/2", "4/3", "9/4", "16/5"])
        triples = [solved_b_triple(rng, flags) for flags in flag_sets]
        space = solve_connection_space(bprime_generic_representative(CFG), CFG, rand_nonspecial_spectrum(rng, d=1))
        triples.append(space.triple_at([1, 2]))
        calls = []
        for module, name in ((stability, "contact_kernel"), (_kernel, "mat_rref")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        for t in triples:
            cstar_limit(t, rand_nonspecial_weight(rng, total_below=1))
        assert calls == []
        report = is_stable(ParabolicStructure(B, [0, 1, 4, 9, 16]), CFG, WeightVector.uniform(sc("9/10")))
        assert report.worst.degree == -1 and calls == ["contact_kernel"]
        even = ParabolicStructure(BundleSplitType(0, 0), triples[0].structure.flags)
        solve_connection_space(even, CFG, rand_nonspecial_spectrum(rng, d=0))
        assert set(calls) == {"contact_kernel", "mat_rref"}


class TestFiberDimension:
    def test_f0(self):
        rng = random.Random(31)
        nu = rand_nonspecial_spectrum(rng, d=1)
        assert fiber_dimension(FixedLocusPoint("F0"), CFG, nu) == 2

    def test_f0_matches_solved_space(self):
        # the F0 fiber needs no solve: the solved space on u_i = z_i^4 has
        # dimension 2 on random real configurations with Gaussian spectra
        rng = random.Random(47)
        for trial in range(200):
            cfg = CFG if trial == 0 else rand_config(rng)
            nu = [
                tuple(Scalar.gaussian(rng.randint(-9, 9), rng.randint(1, 7), rng.randint(-9, 9),
                                      rng.randint(1, 7)) for _ in range(2))
                for _ in range(5)
            ]
            nu[4] = (nu[4][0], -sc(1) - sum((p + m for p, m in nu[:4]), nu[4][0]))
            spectrum = SpectrumRank2(nu, 1)
            assert fiber_dimension(FixedLocusPoint("F0"), cfg, spectrum) == 2
            assert oracle_fiber_dimension(FixedLocusPoint("F0"), cfg, spectrum) == 2

    def test_f1_generic(self):
        rng = random.Random(37)
        nu = rand_nonspecial_spectrum(rng, d=1)
        assert fiber_dimension(interior_point(), CFG, nu) == 2

    def test_f1_marked_zero_both_choices(self):
        rng = random.Random(41)
        nu = rand_nonspecial_spectrum(rng, d=1)
        for choice in ("lower", "upper"):
            p = FixedLocusPoint(
                "F1",
                "top",
                None,
                1,
                ProjectivePoint.finite(sc("17/5")),
                ((1, choice),),
            )
            assert fiber_dimension(p, CFG, nu) == 2

    def test_limit_fibers(self):
        rng = random.Random(43)
        t = solved_b_triple(rng)
        w = rand_nonspecial_weight(rng, total_below=1)
        res = cstar_limit(t, w)
        assert fiber_dimension(res.point, CFG, t.spectrum) == 2


class TestDegreeSplitBound:
    def test_limits_within_k_range(self):
        # w-bound ceil(sum w) = 1: admissible splits for nonzero fixed Higgs
        rng = random.Random(47)
        d, wbound = 1, 1
        lo = (d - wbound) // 2
        hi = (d + 3) // 2
        allowed = set()
        for k in range(1, hi - lo + 1):
            allowed.add((d - k - lo, lo + k))
        assert (0, 1) in allowed and (-1, 2) in allowed
        for _ in range(3):
            t = solved_b_triple(rng)
            w = rand_nonspecial_weight(rng, total_below=1)
            res = cstar_limit(t, w)
            b = res.higgs.bundle
            assert (b.d0, b.d1) in allowed


def _universe_marked(item, cfg):
    # the marked zeros of a sample_universe item's theta, in increasing order
    if item[0] == "line":
        return item[5]
    _, _, i, tg = item
    return tuple(sorted({i} | {k for k, z in enumerate(cfg.z) if tg == ProjectivePoint.finite(z)}))


class TestFlagChoiceCheck:
    """A flag choice away from the marked zeros of theta contradicts strong
    parabolicity: canonicalization and the fiber dimension raise on it."""

    # theta 1 + z vanishes at -1, off the marked points 0..4, and theta 1
    # nowhere
    CASES = [
        ((sc(1), sc(1), sc(0)), ((1, "upper"),)),
        ((sc(1), sc(0), sc(0)), tuple((i, "upper") for i in range(5))),
    ]

    @pytest.mark.parametrize("theta, choice", CASES)
    def test_off_marked_choice_raises(self, theta, choice):
        nu = rand_nonspecial_spectrum(random.Random(53), d=1)
        p = FixedLocusPoint("F1", "bottom", theta, None, None, choice)
        with pytest.raises(HiggsError):
            fixedpoint_canonicalize(p, CFG)
        with pytest.raises(HiggsError):
            fiber_dimension(p, CFG, nu)

    def test_every_off_marked_choice_raises(self):
        # on every universe point, each lower or upper choice at an unmarked
        # point raises, alone or beside a valid choice
        nu = rand_nonspecial_spectrum(random.Random(59), d=1)
        for item in sample_universe(CFG, [sc("11/2"), sc("-13/3"), sc(7)]):
            marked = _universe_marked(item, CFG)
            valid = ((marked[0], "upper"),) if marked else ()
            for k in set(range(5)) - set(marked):
                for choice in ("lower", "upper"):
                    p = universe_point(item, tuple(sorted(valid + ((k, choice),))))
                    with pytest.raises(HiggsError):
                        fixedpoint_canonicalize(p, CFG)
                    with pytest.raises(HiggsError):
                        fiber_dimension(p, CFG, nu)


class TestLimitOracles:
    """The fiber dimension read off the checked flag choices and the limit
    point read off the Higgs datum's marked zeros match the trace-sum rank
    and the canonicalized chart datum of the helpers."""

    CFGS = [CFG, MarkedConfiguration([-2, -1, 0, 1, 3])]

    def test_fiber_matches_trace_rank_on_the_universe(self):
        rng = random.Random(61)
        spectra = [rand_nonspecial_spectrum(rng, d=1) for _ in range(3)]
        compared = 0
        for cfg in self.CFGS:
            for item in sample_universe(cfg, [sc("11/2"), sc("-13/3"), sc(7)]):
                marked = _universe_marked(item, cfg)
                # every lower/upper assignment, a marked zero left unchosen too
                for picks in product((None, "lower", "upper"), repeat=len(marked)):
                    choice = tuple((i, c) for i, c in zip(marked, picks) if c)
                    p = universe_point(item, choice)
                    canon = fixedpoint_canonicalize(p, cfg)
                    assert canon.flag_choice == choice
                    for nu in spectra:
                        assert fiber_dimension(p, cfg, nu) == oracle_fiber_dimension(p, cfg, nu)
                        assert fiber_dimension(canon, cfg, nu) == 2
                        compared += 1
        assert compared > 2000, compared

    # theta by its roots: none, one and two marked zeros and a double one on
    # the marked points 0..4 of CFG, and on -2, -1, 0, 1, 3
    ROOTS = [
        [sc("11/2"), sc("-13/3")],
        [sc("11/2")],
        [],
        [0, sc("9/2")],
        [3],
        [1, 3],
        [0, 1],
        [1, 1],
        [3, 3],
    ]

    def test_limit_point_matches_canonical_chart_datum(self):
        seen = set()
        for cfg in self.CFGS:
            for roots in self.ROOTS:
                theta = monic_from_roots(roots).shrink(2)
                marked = [i for i, z in enumerate(cfg.z) if theta(z).is_zero()]
                double = len(roots) == 2 and roots[0] == roots[1] and len(marked) == 1
                seen.add("double" if double else len(marked))
                for picks in product((0, INF), repeat=len(marked)):
                    flags = [0] * 5
                    for i, u in zip(marked, picks):
                        flags[i] = u
                    h = StronglyParabolicHiggs(B, ParabolicStructure(B, flags), theta, cfg)
                    assert h.marked_zeros == tuple(marked)
                    got = fixedpoint_from_higgs(h)
                    assert got == oracle_limit_point(h), (roots, picks)
                    assert fixedpoint_canonicalize(got, cfg) == got
        assert seen == {0, 1, 2, "double"}, seen
        assert fixedpoint_from_higgs(f0_datum()) == oracle_limit_point(f0_datum())

    def test_limits_of_solved_triples(self):
        rng = random.Random(67)
        for flags in (None, [INF, 1, 2, 3, 5], [INF, INF, 1, 2, 5], [0, 2, 3, 5, 7]):
            t = solved_b_triple(rng, flags)
            res = cstar_limit(t, rand_nonspecial_weight(rng, total_below=1))
            assert res.point == oracle_limit_point(res.higgs)


class TestMarkedZeros:
    def test_product_matches_evaluation(self):
        # thetas with no, one, two and a double marked zero, and linear ones,
        # scaled by real, Gaussian and purely imaginary factors, on random
        # configurations: the strong-parabolicity check of the Higgs datum
        # and the marked zeros of a line point, both read off the inverse
        # numerator map, against theta evaluated at every marked point
        rng = random.Random(79)
        seen = set()
        for trial in range(500):
            cfg = rand_config(rng)
            z = list(cfg.z)
            roots = [
                [rand_rational(rng), rand_rational(rng)],
                [rng.choice(z), rand_rational(rng)],
                rng.sample(z, 2),
                [rng.choice(z)] * 2,
                [rng.choice(z + [rand_rational(rng)])],
            ][trial % 5]
            scale = Scalar(*rng.choice([(1, 0), (-3, 2), (0, 1), (0, -5), (2, 7)])) / rng.randint(1, 6)
            theta = scale * monic_from_roots(roots).shrink(2)
            expected = tuple(i for i, zi in enumerate(z) if theta(zi).is_zero())
            h = StronglyParabolicHiggs(B, ParabolicStructure(B, [0] * 5), theta, cfg)
            assert h.marked_zeros == expected, (roots, z)
            assert higgslimit._marked_zeros(FixedLocusPoint("F1", "top", theta.coeffs), cfg) == expected
            seen.add((len(expected), len(roots) == 2 and roots[0] == roots[1]))
        assert {(0, False), (1, False), (2, False), (1, True)} <= seen, seen


class TestThetaEvaluations:
    """A limit reads theta's marked zeros off the triple's zero (12)
    residues, with no product with the inverse numerator map and no
    evaluation of theta, and the fiber dimension of a point without flag
    choices evaluates nothing; evaluating the marked zeros afresh in each
    step took up to four passes, and the inverse product one."""

    @staticmethod
    def _recorder(monkeypatch):
        calls = []
        real = Poly.__call__

        def call(poly, x):
            calls.append((poly.coeffs, x))
            return real(poly, x)

        monkeypatch.setattr(Poly, "__call__", call)
        return calls

    def test_limit_evaluates_each_marked_point_once(self, monkeypatch):
        rng = random.Random(71)
        triples = [solved_b_triple(rng, flags)
                   for flags in (None, None, [INF, 1, 2, 3, 5], [INF, INF, 1, 2, 5])]
        calls = self._recorder(monkeypatch)
        found = []
        real_zeros = higgslimit._zeros_at_marked_points
        monkeypatch.setattr(
            higgslimit, "_zeros_at_marked_points", lambda c, cfg: found.append(c) or real_zeros(c, cfg)
        )
        with_zeros = 0
        for t in triples:
            calls.clear()
            found.clear()
            h = cstar_limit(t, rand_nonspecial_weight(rng, total_below=1)).higgs
            at_zeros = [CFG.z[i] for i in h.marked_zeros]
            with_zeros += bool(at_zeros)
            theta, slope = h.theta.coeffs, h.theta.derivative().coeffs
            assert found == []
            assert [x for c, x in calls if c == theta] == [], calls
            derivative = [x for c, x in calls if c == slope]
            assert all(x in at_zeros for x in derivative) and len(derivative) <= len(at_zeros)
            assert len(calls) <= len(at_zeros), calls
        assert with_zeros >= 2

    def test_fiber_without_choices_evaluates_nothing(self, monkeypatch):
        nu = rand_nonspecial_spectrum(random.Random(73), d=1)
        points = [
            interior_point(),
            FixedLocusPoint("F1", "top", None, 1, ProjectivePoint.finite(sc("17/5"))),
            universe_point(("line", "bottom", monic_from_roots([1, 3]).shrink(2), None, None, ())),
        ]
        calls = self._recorder(monkeypatch)
        for p in points:
            assert fiber_dimension(p, CFG, nu) == 2
        assert calls == []


def _one_infinite_flags(rng, k):
    # random B flags, infinite at k only, on an indecomposable structure
    while True:
        flags = [INF if i == k else rand_rational(rng, -9, 9, 4) for i in range(5)]
        if not is_decomposable(ParabolicStructure(B, flags), CFG)[0]:
            return flags


def _limit_inputs(rng):
    """Solved triples of every input class of the pipeline benchmark (generic
    B, one infinite flag at each marked point, B') and of the fixed B flags
    with one and two infinite flags, then the gauge image of each."""
    triples = [solved_b_triple(rng) for _ in range(4)]
    triples += [solved_b_triple(rng, _one_infinite_flags(rng, k)) for k in range(5) for _ in range(3)]
    triples += [solved_b_triple(rng, flags)
                for flags in ([INF, 1, 2, 3, 5], [INF, INF, 1, 2, 5]) for _ in range(3)]
    s = bprime_generic_representative(CFG)
    for _ in range(3):
        space = solve_connection_space(s, CFG, rand_nonspecial_spectrum(rng, d=1))
        triples.append(space.triple_at([rand_rational(rng, -4, 4, 2) for _ in range(space.dim)]))
    gauged = []
    for t in triples:
        n = 3 if t.connection.bundle == B else 5
        gauged.append(gauge_transform(t, [sc(2)] + [rand_rational(rng, -3, 3, 2) for _ in range(n - 1)]))
    return triples + gauged


def _upper_connection(bundle, numerator: Poly) -> LogConnection:
    """The connection on ``bundle`` whose only nonzero residue entries are
    the (12) residues of the cleared numerator ``numerator``:
    ``numerator(z_i) / prod_{j != i} (z_i - z_j)``."""
    _, partials = CFG.pole_products()
    return LogConnection(bundle, [((0, numerator(zi) / p(zi)), (0, 0)) for zi, p in zip(CFG.z, partials)])


class TestLimitMarkedZerosFromResidues:
    """A limit builds its E0 datum from theta's coefficients and the zero
    (12) residues of the triple: the public constructor, with its product
    with the inverse numerator map, and the shrunk numerator polynomial are
    the oracles."""

    def test_residue_zeros_match_inverse_product(self):
        rng = random.Random(83)
        with_zeros, bundles = 0, set()
        for t in _limit_inputs(rng):
            res = cstar_limit(t, rand_nonspecial_weight(rng, total_below=1))
            (e0,) = [c.higgs for c in res.candidates if c.name == "E0"]
            bound = 2 if e0.bundle == B else 0
            expected = t.connection.numerator(0, 1, CFG).shrink(bound)
            assert (e0.theta.coeffs, e0.theta.bound) == (expected.coeffs, bound)
            assert e0.marked_zeros == higgslimit._zeros_at_marked_points(e0.theta.coeffs, CFG)
            oracle = StronglyParabolicHiggs(e0.bundle, e0.structure, expected, CFG)
            assert oracle.marked_zeros == e0.marked_zeros
            with_zeros += bool(e0.marked_zeros)
            bundles.add(e0.bundle)
        assert bundles == {B, BPRIME}
        assert with_zeros > 20, with_zeros

    # hand-built triples on which the limit fails, with the exception type
    # and text of the numerator-polynomial path: N12 above its bound on B and
    # on B', an infinite flag where theta does not vanish, and a zero theta
    FAILURES = [
        (B, [1, 2, 3, 5, 7], Poly([1, 0, 0, 1]), ExactError,
         "polynomial has degree 3, cannot bound by 2"),
        (BPRIME, [1, 2, 3, 5, 7], Poly([1, 1]), ExactError,
         "polynomial has degree 1, cannot bound by 0"),
        (B, [1, INF, 3, 5, 7], Poly([1, 0, 1]), HiggsError,
         "flag at point 2 must lie on the lower summand where theta is nonzero"),
        (B, [1, 2, 3, 5, 7], Poly.zero(), HiggsError,
         "upper off-diagonal data vanishes: the triple is reducible"),
    ]

    @pytest.mark.parametrize(
        "bundle, flags, numerator, exc, text", FAILURES,
        ids=["N12-degree-3-on-B", "N12-degree-1-on-Bprime", "infinite-flag-off-zero", "zero-theta"],
    )
    def test_failures_keep_type_and_text(self, bundle, flags, numerator, exc, text):
        rng = random.Random(89)
        conn = _upper_connection(bundle, numerator)
        assert conn.numerator(0, 1, CFG) == numerator
        t = FlatTriple(ParabolicStructure(bundle, flags), rand_nonspecial_spectrum(rng, d=1), conn, CFG)
        with pytest.raises(exc) as info:
            cstar_limit(t, rand_nonspecial_weight(rng, total_below=1))
        assert (type(info.value), str(info.value)) == (exc, text)
        if exc is ExactError:
            with pytest.raises(ExactError) as info:
                theta_from_connection(conn, CFG)
            assert (type(info.value), str(info.value)) == (exc, text)
        else:
            assert theta_from_connection(conn, CFG) == numerator


class TestNoScalarArithmeticPastTheSolve:
    """Past the solve, the pipeline's stages run on ``_kernel`` triples and
    integers: ``gauge_transform`` (with the flags it moves), ``elm_triple``
    (with its spectrum) and ``cstar_limit`` (with its point's JSON) make no
    Scalar ``+ - * /``, evaluate no ``Poly`` and build no projective point
    through ``ProjectivePoint.__init__`` on solved B and B' triples.  Counted
    calls, not seconds, so the test does not depend on the machine's load."""

    NAMES = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__")

    @classmethod
    def _recorder(cls, monkeypatch):
        calls = []

        def counted(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in cls.NAMES:
            monkeypatch.setattr(Scalar, name, counted(f"Scalar.{name}", getattr(Scalar, name)))
        monkeypatch.setattr(Poly, "__call__", counted("Poly.__call__", Poly.__call__))
        monkeypatch.setattr(
            ProjectivePoint, "__init__", counted("ProjectivePoint.__init__", ProjectivePoint.__init__)
        )
        return calls

    def test_frame_changes_and_limit(self, monkeypatch):
        rng = random.Random(107)
        triples = [solved_b_triple(rng) for _ in range(3)]
        triples += [solved_b_triple(rng, _one_infinite_flags(rng, k)) for k in range(5)]
        triples.append(solved_b_triple(rng, [INF, INF, 1, 2, 5]))
        space = solve_connection_space(
            bprime_generic_representative(CFG), CFG, rand_nonspecial_spectrum(rng, d=1)
        )
        triples += [space.triple_at([rand_rational(rng, -4, 4, 2) for _ in range(2)]) for _ in range(3)]
        inputs = [
            (t, [sc(2)] + [rand_rational(rng, -3, 3, 2) for _ in range(2 if t.connection.bundle == B else 4)],
             rand_nonspecial_weight(rng, total_below=1))
            for t in triples
        ]
        # the configuration builds its numerator maps once, on Scalars
        CFG.numerator_maps()
        calls = self._recorder(monkeypatch)
        points = []
        for t, params, w in inputs:
            moved = gauge_transform(t, params)
            for j in range(5):
                elm_triple(t, j)
            for triple in (t, moved):
                points.append(cstar_limit(triple, w).point)
                points[-1].to_json(CFG)
            assert calls == [], calls
        assert {p.component for p in points} == {"F0", "F1"}
        assert any(p.exceptional_index is not None for p in points)
        assert any(p.theta is not None for p in points)
