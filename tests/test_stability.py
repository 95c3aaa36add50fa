import json
import random
from collections import Counter
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest

import helpers
from helpers import (
    _oracle_resultant,
    destabilizing_candidates,
    fiber_at,
    memo_contact_kernel,
    oracle_b_degree_zero_candidates,
    oracle_candidates_at_degree,
    oracle_chamber_inequalities,
    oracle_contact_of,
    oracle_contact_rows,
    oracle_irreducibility_screen,
    oracle_is_stable,
    oracle_is_stable_report,
    oracle_kostov_generic,
    oracle_least_margin_candidates,
    oracle_predicates,
    oracle_rank,
    oracle_s_value,
    oracle_saturated_members,
    rand_config,
    rand_gaussian,
    rand_mixed_config,
    rand_nonspecial_weight,
    rand_rational,
    rand_structure,
    rand_u2_indecomposable,
    rand_ui_indecomposable,
    rand_uij_indecomposable,
    rand_weight,
    saturated_members,
    unit_kernels,
    walk_candidates_at_degree,
)
from paramod._kernel import t_clear
from paramod.cli import main
from paramod.connection import irreducibility_screen
from paramod import _kernel, exactnum, parastruct, stability
from paramod.exactnum import INF, ExactError, Mat, Poly, Scalar, clear_denominators, sc
from paramod.parastruct import (
    B,
    BPRIME,
    MarkedConfiguration,
    ParabolicStructure,
    classify,
)
from paramod.spectra import SpectrumRank2
from paramod.stability import (
    ChamberDescriptor,
    InvariantError,
    LineSubbundleWitness,
    OnWallError,
    StabilityReport,
    WeightVector,
    _candidate_degrees,
    _hom_degrees,
    _zi_restrict,
    chamber_classify,
    contact_kernel,
    contact_rows,
    formal_resultant,
    is_stable,
    no_stable_structure,
    s_value,
    sign_pattern_sums,
    stabilizing_weight,
    weight_is_kostov_generic,
    weight_is_non_special,
)

CFG = MarkedConfiguration([0, 1, 2, 3, 4])
W14 = WeightVector.uniform(sc("1/4"))


class TestKostovGeneric:
    def test_quarter_weights(self):
        assert weight_is_kostov_generic(W14, 1)

    def test_fifth_weights(self):
        assert not weight_is_kostov_generic(WeightVector.uniform(sc("1/5")), 1)

    def test_zero_weights(self):
        w0 = WeightVector.uniform(0)
        assert weight_is_kostov_generic(w0, 1)
        assert not weight_is_kostov_generic(w0, 2)

    def test_half_patterns_match_all_32(self):
        # the 16 patterns with eps_1 = +1 against the loop over all 32, on
        # random weights and on weights put on a wall sum eps_i w_i = 2m - d,
        # half of those with eps_1 = -1, which only the complement detects
        rng = random.Random(2103)
        counts = Counter()
        for k in range(1800):
            d = k % 3
            den = rng.randrange(2, 13)
            nums = [rng.randrange(0, den) for _ in range(5)]
            placed = None
            if k % 2:
                # the last weight, if one in [0, 1) has a sign and an m that
                # put the others on a wall
                eps = [-1 if k % 4 == 1 else 1] + [rng.choice((1, -1)) for _ in range(3)]
                rest = sum(e * a for e, a in zip(eps, nums))
                for e5, m in product((1, -1), range(-3, 5)):
                    last = e5 * ((2 * m - d) * den - rest)
                    if 0 <= last < den:
                        nums[4], placed = last, eps[0]
                        break
            sums = stability._sign_sums([((a, 0), (-a, 0)) for a in nums])
            assert len(sums) == 32
            want = all((re + d * den) % (2 * den) for re, _ in sums)
            assert stability._kostov_generic(nums, den, d) == want, (nums, den, d)
            assert placed is None or not want
            counts[d, placed, want] += 1
        for d in (0, 1, 2):
            assert counts[d, -1, False] > 100 and counts[d, 1, False] > 100, counts
            assert counts[d, None, True] > 100 and counts[d, None, False] > 100, counts


def _chamber_or_wall(classify_fn, w, d):
    try:
        return classify_fn(w, d)
    except OnWallError as exc:
        return ("wall", str(exc))


def _rand_sign_spectrum(rng, kind):
    """A spectrum of degree -1..2 with real small-denominator eigenvalues
    (many integer sign-pattern sums), Gaussian ones, or Gaussian ones whose
    imaginary parts cancel in some patterns."""
    d = rng.randrange(-1, 3)

    def val(max_den, im=0):
        return Scalar.gaussian(rng.randrange(-6, 7), rng.randrange(1, max_den + 1), im, 1)

    if kind == "real":
        vals = [val(3) for _ in range(9)]
    elif kind == "gaussian":
        vals = [val(6, rng.randrange(-3, 4)) for _ in range(9)]
    else:
        y = rng.randrange(1, 4)
        vals = [val(2, y), val(2), val(2, -y)] + [val(2) for _ in range(6)]
    vals.append(-sum(vals, sc(d)))
    return SpectrumRank2(list(zip(vals[0::2], vals[1::2])), d)


class TestSignPatternSums:
    def test_integer_sums_match_scalar_sums(self):
        nu = SpectrumRank2([("1/2+i", "-1/3"), ("1/4", "-1/4"), ("2", "-i"), ("0", "1/6"), ("1", "-7/3")], -1)
        den, sums = sign_pattern_sums(nu.nu)
        assert den == 12
        for sigma, (re, im) in sums:
            total = sum((p[s] for p, s in zip(nu.nu, sigma)), sc(0))
            assert Scalar.gaussian(re, den, im, den) == total
        assert [sigma for sigma, _ in sums] == [
            tuple(int(b) for b in f"{k:05b}") for k in range(32)
        ]

    def test_weights_match_scalar_loop(self):
        # small denominators put many weights on a wall; the walls of
        # chamber_classify depend only on the parity of d
        rng = random.Random(2101)
        walls = non_generic = resonant = 0
        for k in range(2000):
            max_den = (4, 6, 16)[k % 3]
            w = WeightVector(
                [Scalar.rational(rng.randrange(0, den), den)
                 for den in [rng.randrange(1, max_den + 1) for _ in range(5)]]
            )
            for d in (-1, 0, 1, 2):
                generic = weight_is_kostov_generic(w, d)
                assert generic == oracle_kostov_generic(w, d), (w, d)
                non_generic += not generic
                # the Scalar definition of a non-special weight
                want = generic and all(x > sc(0) for x in w.w)
                assert weight_is_non_special(w, d) == want, (w, d)
                resonant += generic and not want
            d = k % 2
            got = _chamber_or_wall(lambda w, d: chamber_classify(w, d).inequalities, w, d)
            assert got == _chamber_or_wall(oracle_chamber_inequalities, w, d), (w, d)
            walls += got[0] == "wall"
        assert walls > 100 and non_generic > 500 and resonant > 100, (walls, non_generic, resonant)

    def test_spectra_match_scalar_loop(self):
        rng = random.Random(2102)
        seen = {"non-kostov": 0, "gaussian-integer-sum": 0, "unknown": 0}
        for k in range(2000):
            nu = _rand_sign_spectrum(rng, ("real", "gaussian", "cancelling")[k % 3])
            preds = nu.predicates()
            assert preds == oracle_predicates(nu), nu
            screen = irreducibility_screen(SimpleNamespace(spectrum=nu))
            assert screen == oracle_irreducibility_screen(nu), nu
            seen["non-kostov"] += not preds["kostov_generic"]
            seen["unknown"] += screen[0] == "unknown"
            if not preds["kostov_generic"] and any(not x.is_real() for p in nu.nu for x in p):
                seen["gaussian-integer-sum"] += 1
        assert min(seen.values()) > 200, seen


class TestSValue:
    def test_direct_formula(self):
        assert s_value(1, 1, set(), W14) == sc("1/4")

    def test_full_contact_threshold(self):
        w = WeightVector.uniform(sc("1/4"))
        assert s_value(1, -1, set(range(5)), w) == sc(3) - w.total()

    def test_degree_zero_positive(self):
        assert s_value(1, 0, set(), W14) == sc(1) + W14.total()

    def test_permutation_equivariance(self):
        rng = random.Random(2)
        w = [Scalar.rational(rng.randrange(0, 8), 9) for _ in range(5)]
        contact = {0, 2}
        base = s_value(1, 0, contact, WeightVector(w))
        for perm in list(permutations(range(5)))[:24]:
            wp = WeightVector([w[perm[i]] for i in range(5)])
            cp = {perm.index(i) for i in contact}
            assert s_value(1, 0, cp, wp) == base


    def test_matches_scalar_sum(self):
        # the same value, and so the same string, as the sum on Scalars
        rng = random.Random(19)
        for _ in range(200):
            w = WeightVector(
                [Scalar.rational(rng.randrange(0, den), den) for den in [rng.randrange(2, 30) for _ in range(5)]]
            )
            contact = set(rng.sample(range(5), rng.randint(0, 5)))
            d, deg_f = rng.choice([0, 1]), rng.randint(-2, 3)
            got, want = s_value(d, deg_f, contact, w), oracle_s_value(d, deg_f, contact, w)
            assert got == want and str(got) == str(want)


class TestFormalResultant:
    # coefficients are Gaussian integers (re, im), lowest degree first
    def test_coprime(self):
        # q = z, r = z - 1 at formal degrees (1, 2): no projective common root
        assert formal_resultant([(0, 0), (1, 0)], 1, [(-1, 0), (1, 0), (0, 0)], 2) != (0, 0)

    def test_common_affine_root(self):
        # q = z, r = z^2
        assert formal_resultant([(0, 0), (1, 0)], 1, [(0, 0), (0, 0), (1, 0)], 2) == (0, 0)

    def test_common_root_at_infinity(self):
        # both drop formal degree: q = 1 (bound 1), r = z (bound 2)
        assert formal_resultant([(1, 0), (0, 0)], 1, [(0, 0), (1, 0), (0, 0)], 2) == (0, 0)

    def test_closed_forms_match_sylvester_determinant(self):
        # the closed forms at dq <= 1 agree with the rational Bareiss
        # determinant of the Sylvester matrix, sign included
        rng = random.Random(29)

        def coeff():
            if rng.random() < 0.25:
                return (0, 0)
            return (rng.randint(-4, 4), rng.randint(-4, 4) if rng.random() < 0.5 else 0)

        zeros = 0
        for _ in range(400):
            dq, dr = rng.randint(0, 1), rng.randint(0, 4)
            qs = [coeff() for _ in range(dq + 1)]
            rs = [coeff() for _ in range(dr + 1)]
            got = formal_resultant(qs, dq, rs, dr)
            want = _oracle_resultant(_scalar_rows([qs])[0], dq, _scalar_rows([rs])[0], dr)
            assert Scalar.gaussian(got[0], 1, got[1], 1) == want, (qs, dq, rs, dr)
            zeros += got == (0, 0)
        assert zeros > 30

    def test_formal_degrees_outside_closed_forms_rejected(self):
        for dq, dr in ((2, 1), (3, 0), (-1, 2), (1, -1)):
            with pytest.raises(ExactError):
                formal_resultant([(1, 0)] * (max(dq, 0) + 1), dq, [(1, 0)] * (max(dr, 0) + 1), dr)


def _grid_structures():
    # decomposable B (spans without a saturated member), two infinite flags
    # and B', two each
    rng = random.Random(41)
    out = []
    for _ in range(2):
        cfg = rand_config(rng)
        a, b = rand_rational(rng), rand_rational(rng, -10, 10, 4)
        out.append((ParabolicStructure(B, [a + b * z for z in cfg.z]), cfg))
        i, j = sorted(rng.sample(range(5), 2))
        out.append((rand_uij_indecomposable(rng, cfg, i, j), cfg))
        out.append((rand_structure(rng, BPRIME, n_inf=0), cfg))
    return out


def _vectors(members):
    # the (q, r) of the Scalar grid search as one coefficient vector, q first
    return [[x for p in pair if p is not None for x in p.coeffs] for pair in members]


def _cleared_rows(rows):
    # each Scalar row cleared to Gaussian integers
    return {i: t_clear([x._t for x in row])[0] for i, row in rows.items()}


def _scalar_rows(ibasis):
    return [[Scalar.gaussian(a, 1, b, 1) for a, b in vec] for vec in ibasis]


def _subsets(keys):
    # every subset, by descending size as walk_candidates_at_degree visits them
    return [T for size in range(len(keys), -1, -1) for T in combinations(keys, size)]


def _assert_same_members(ibasis, dq, dr):
    # the Gaussian-integer grid search yields what the Scalar one does
    got = _scalar_rows(saturated_members(ibasis, dq, dr))
    assert got == _vectors(oracle_saturated_members(_scalar_rows(ibasis), dq, dr))
    return len(got)


class TestSaturatedMembers:
    """The grid search on Gaussian integers yields, in the same order, the
    coefficient vectors of exactly the members that the grid search on
    Scalars finds over the same basis."""

    def test_candidate_bases(self):
        # every contact subset's kernel, as walk_candidates_at_degree builds it
        spans = []
        for s, cfg in _grid_structures():
            dq, dr = _hom_degrees(s.bundle, -1)
            zrows = contact_rows(s, cfg, dq, dr)
            kernels = unit_kernels(dq + dr + 2)
            for T in _subsets(list(zrows)):
                basis = memo_contact_kernel(T, zrows, kernels)
                spans.append(_assert_same_members(basis, dq, dr))
        assert 0 in spans and max(spans) > 1

    def test_degenerate_candidate_bases(self):
        # the (1, 2) spans of the contact-kernel walk of cstar_limit's
        # degenerations: contact at every marked point but the j-th, from one
        # memo for the five j
        spans = []
        for s, cfg in _grid_structures():
            if s.bundle != B:
                continue
            zrows = contact_rows(s, cfg, 1, 2)
            kernels = unit_kernels(5)
            for j in range(5):
                others = tuple(i for i in zrows if i != j)
                basis = memo_contact_kernel(others, zrows, kernels)
                spans.append(_assert_same_members(basis, 1, 2))
        assert 0 in spans and max(spans) > 0


    def test_degree_zero_span(self):
        # at (0, 0) the resultant is a nonzero constant: the one basis vector
        # is saturated and lies on the grid {0, 1}
        basis = [[(1, 0), (1, 0)]]
        assert list(saturated_members(basis, 0, 0)) == basis
        assert _assert_same_members(basis, 0, 0) == 1

    def test_negative_degrees_rejected(self):
        with pytest.raises(ExactError):
            next(saturated_members([[(1, 0)]], -1, 0))


def _span(pairs):
    # a Gaussian-integer basis from (q, r) coefficient lists, lowest degree
    # first, each coefficient an int or a pair (re, im)
    return [[c if isinstance(c, tuple) else (c, 0) for c in q + r] for q, r in pairs]


def _class_structures(rng, count):
    # the five input classes of a random stability decision, ``count`` each
    out = {name: [] for name in ("generic", "one-inf", "two-inf", "decomposable", "bprime")}
    for _ in range(count):
        cfg = rand_config(rng)
        i, j = sorted(rng.sample(range(5), 2))
        a, b = rand_rational(rng), rand_rational(rng, -10, 10, 4)
        out["generic"].append((rand_u2_indecomposable(rng, cfg), cfg))
        out["one-inf"].append((rand_ui_indecomposable(rng, cfg, i), cfg))
        out["two-inf"].append((rand_uij_indecomposable(rng, cfg, i, j), cfg))
        out["decomposable"].append((ParabolicStructure(B, [a + b * z for z in cfg.z]), cfg))
        out["bprime"].append((rand_structure(rng, BPRIME, n_inf=0), cfg))
    return out


def _rank(rows, T):
    # the rank of the Scalar rows ``T`` by the rational Bareiss elimination
    return oracle_rank([[x._t for x in rows[i]] for i in T], len(T), len(rows[T[0]])) if T else 0


class TestSpanCertificate:
    """The grid walk of ``saturated_members`` finds a saturated member iff
    the exhaustive Scalar grid search does, and the same first one, on
    constructed spans with and without a base point, with zero and nonzero
    minors, and on the contact kernels of every input class."""

    # name: (dq, dr, basis as (q, r) pairs, whether a member is saturated)
    SPANS = {
        "dim 1, saturated": (1, 2, [([1, 1], [0, 0, 1])], True),
        "dim 1, finite base point": (1, 2, [([-1, 1], [0, -1, 1])], False),
        "dim 1, base point at infinity": (1, 2, [([1, 0], [0, 1, 0])], False),
        # all minors zero without a base point: {(q, (z + 2) q)}, {(0, r)}
        # and {(q, (z + 1 + i) q)}
        "minors zero, (q, lq)": (1, 2, [([1, 0], [2, 1, 0]), ([0, 1], [0, 2, 1])], False),
        "minors zero, (0, r)": (1, 2, [([0, 0], [1, 0, 0]), ([0, 0], [0, 1, 0]), ([0, 0], [0, 0, 1])], False),
        "minors zero, Gaussian (q, lq)": (
            1, 2, [([(0, 1), 0], [(-1, 1), (0, 1), 0]), ([3, 1], [(3, 3), (4, 1), 1])], False,
        ),
        # a nonzero minor and a base point at z = 1, at z = i, at infinity
        "minor, finite base point": (1, 2, [([-1, 1], [0, 0, 0]), ([0, 0], [-3, 2, 1])], False),
        "minor, Gaussian base point": (
            1, 2, [([(0, -1), 1], [0, 0, 0]), ([0, 0], [(0, -1), (1, -1), 1]), ([(0, -2), 2], [(0, -1), 1, 0])], False,
        ),
        "minor, base point at infinity only": (1, 2, [([1, 0], [0, 0, 0]), ([0, 0], [0, 1, 0])], False),
        "minor, no base point": (1, 2, [([1, 0], [0, 0, 0]), ([0, 1], [0, 0, 1])], True),
        "minor, no base point, dim 3": (
            1, 2, [([1, 1], [0, 0, 0]), ([0, 0], [1, 0, 1]), ([2, 2], [-1, 0, -1])], True,
        ),
        # B' degree -1 spans at (0, 3): q is a constant
        "B', dim 1, saturated": (0, 3, [([1], [1, 0, 0, 1])], True),
        "B', dim 1, q = 0": (0, 3, [([0], [1, 0, 0, 1])], False),
        "B', minor": (0, 3, [([1], [0, 0, 0, 0]), ([0], [1, 0, 0, 0])], True),
        "B', minors zero, (0, r)": (
            0, 3, [([0], [1, 0, 0, 0]), ([0], [0, 1, 0, 0]), ([0], [0, 0, 1, 0]), ([0], [0, 0, 0, 1])], False,
        ),
        "B', (0, r) with base point": (0, 3, [([0], [-1, 1, 0, 0]), ([0], [0, -1, 1, 0])], False),
    }

    @pytest.mark.parametrize("name", sorted(SPANS))
    def test_constructed_spans(self, name):
        dq, dr, pairs, want = self.SPANS[name]
        # the whole walk, member by member, against the Scalar grid's
        assert (_assert_same_members(_span(pairs), dq, dr) > 0) == want

    def test_contact_kernels_of_every_class(self):
        rng = random.Random(67)
        found = {True: 0, False: 0}
        for structures in _class_structures(rng, 3).values():
            for s, cfg in structures:
                for k in _candidate_degrees(s.bundle):
                    dq, dr = _hom_degrees(s.bundle, k)
                    if dq < 0 or (s.bundle == B and k == 0):
                        continue
                    zrows = contact_rows(s, cfg, dq, dr)
                    kernels = unit_kernels(dq + dr + 2)
                    for T in _subsets(list(zrows)):
                        basis = memo_contact_kernel(T, zrows, kernels)
                        if not basis:
                            continue
                        # the first member each grid search finds
                        got = next(saturated_members(basis, dq, dr), None)
                        want = next(oracle_saturated_members(_scalar_rows(basis), dq, dr), None)
                        assert (got is None) == (want is None), (s, T)
                        assert got is None or _scalar_rows([got]) == _vectors([want]), (s, T)
                        found[got is not None] += 1
        assert found[True] > 100 and found[False] > 30, found

    def test_negative_formal_degree_rejected(self):
        # a negative dr, where TestSaturatedMembers takes a negative dq
        with pytest.raises(ExactError):
            next(saturated_members(_span([([1], [])]), 0, -1))


def _gaussian_rows(rng):
    # five Gaussian rows on five columns: the fourth a Gaussian combination
    # of the first two, so its restriction to their kernel is zero, and the
    # fifth zero
    def entry():
        return Scalar.gaussian(rng.randint(-9, 9), rng.randint(1, 6), rng.randint(-9, 9), rng.randint(1, 6))

    rows = [[entry() for _ in range(5)] for _ in range(3)]
    c = entry()
    rows.append([x + c * y for x, y in zip(rows[0], rows[1])])
    rows.append([sc(0)] * 5)
    return dict(enumerate(rows))


class TestContactKernels:
    """The prefix-restricted Gaussian-integer kernel of every subset of the
    contact rows spans the rational nullspace of those rows."""

    def _assert_spans_nullspace(self, rows, T, basis):
        want = Mat([rows[i] for i in T]).nullspace() if T else None
        dim = len(want) if T else len(rows[next(iter(rows))])
        assert len(basis) == dim, T
        if not basis:
            return
        zbasis = Mat(_scalar_rows(basis))
        assert zbasis.rank() == dim, T
        for i in T:
            for vec in _scalar_rows(basis):
                assert sum((a * x for a, x in zip(rows[i], vec)), sc(0)).is_zero()
        if T:
            assert Mat(_scalar_rows(basis) + want).rank() == dim, T

    def test_grid_structure_rows(self):
        seen = set()
        for s, cfg in _grid_structures():
            for dq, dr in {_hom_degrees(s.bundle, -1), (1, 2)}:
                rows = oracle_contact_rows(s, cfg, dq, dr)
                zrows = contact_rows(s, cfg, dq, dr)
                # each Gaussian-integer row is the Scalar row cleared
                assert zrows == _cleared_rows(rows)
                kernels = unit_kernels(dq + dr + 2)
                for T in _subsets(list(rows)):
                    basis = memo_contact_kernel(T, zrows, kernels)
                    self._assert_spans_nullspace(rows, T, basis)
                    # the plain fold of the decision builds the same basis
                    assert contact_kernel(T, zrows) == basis, T
                    seen.add(len(basis))
        assert seen >= {1, 2, 3, 4, 5}

    def test_gaussian_and_dependent_rows(self):
        rng = random.Random(61)
        unchanged = 0
        for _ in range(20):
            rows = _gaussian_rows(rng)
            zrows = _cleared_rows(rows)
            kernels = unit_kernels(5)
            for T in _subsets(list(rows)):
                basis = memo_contact_kernel(T, zrows, kernels)
                self._assert_spans_nullspace(rows, T, basis)
                assert contact_kernel(T, zrows) == basis, T
                # row . N(prefix) = 0: the restriction keeps the prefix basis
                if T[-1:] == (3,) and {0, 1} <= set(T) or T[-1:] == (4,):
                    assert basis is kernels[T[:-1]]
                    unchanged += 1
        assert unchanged > 0

    def test_restriction_divides_out_content(self):
        basis = [[(2, 0), (0, 0)], [(0, 0), (2, 0)]]
        assert _zi_restrict(basis, [(3, 0), (3, 0)]) == [[(-1, 0), (1, 0)]]


class TestCandidatesMatchOracle:
    """The Gaussian-integer enumeration finds the same contact sets, in the
    same order, as the rational one, with saturated witnesses whose contact
    is exactly the recorded set."""

    def _structures(self):
        rng = random.Random(83)
        out = list(_grid_structures())
        for _ in range(8):
            cfg = rand_config(rng)
            i, j = sorted(rng.sample(range(5), 2))
            a, b = rand_rational(rng), rand_rational(rng, -10, 10, 4)
            out += [
                (rand_u2_indecomposable(rng, cfg), cfg),
                (rand_ui_indecomposable(rng, cfg, i), cfg),
                (rand_uij_indecomposable(rng, cfg, i, j), cfg),
                (ParabolicStructure(B, [a + b * z for z in cfg.z]), cfg),
                (rand_structure(rng, BPRIME, n_inf=0), cfg),
            ]
        return out

    def test_same_contacts_in_same_order(self):
        for s, cfg in self._structures():
            _assert_matches_oracle(s, cfg)


def _oracle_candidates(s, cfg):
    return [c for k in _candidate_degrees(s.bundle) for c in oracle_candidates_at_degree(s, cfg, k)]


def _assert_matches_oracle(s, cfg):
    # the same contact sets in the same order as the rational enumeration,
    # with saturated witnesses whose contact is exactly the recorded set
    got = destabilizing_candidates(s, cfg)
    assert [(c.degree, c.contact) for c in got] == [
        (c.degree, c.contact) for c in _oracle_candidates(s, cfg)
    ], s
    for c in got:
        assert oracle_contact_of(c.q, c.r, s, cfg) == c.contact
        dq, dr = _hom_degrees(s.bundle, c.degree)
        if dq < 0:
            assert c.q is None and not c.r.is_zero()
            continue
        (coeffs,), _ = clear_denominators([c.q.coeffs + c.r.coeffs])
        assert formal_resultant(coeffs[: dq + 1], dq, coeffs[dq + 1 :], dr) != (0, 0)


def _line_structures():
    # B structures for the degree-0 lines: random flags; three, four and
    # five flags on one line; two collinear triples sharing a flag; 0, 1
    # and 2 finite flags; repeated flag values
    rng = random.Random(97)
    out = []
    for _ in range(6):
        cfg = rand_config(rng)
        a, b = rand_rational(rng), rand_rational(rng, -10, 10, 4)
        line = [a + b * z for z in cfg.z]
        out.append((rand_structure(rng, B, n_inf=0), cfg))
        for ncol in (3, 4, 5):
            on = rng.sample(range(5), ncol)
            flags = [u if i in on else u + rng.randint(1, 9) for i, u in enumerate(line)]
            out.append((ParabolicStructure(B, flags), cfg))
        # flags 0, 1, 2 on the line, flags 2, 3, 4 on another through flag 2
        c = rand_rational(rng, -10, 10, 4) + 1
        flags = line[:3] + [line[2] + (b + c) * (cfg.z[i] - cfg.z[2]) for i in (3, 4)]
        out.append((ParabolicStructure(B, flags), cfg))
        for n_inf in (5, 4, 3):
            out.append((rand_structure(rng, B, n_inf=n_inf), cfg))
        v, u = rand_rational(rng), rand_rational(rng)
        out.append((ParabolicStructure(B, rng.sample([v, v, v, u, u], 5)), cfg))
        out.append((ParabolicStructure(B, rng.sample([v, v, u, INF, INF], 5)), cfg))
    # non-real flags on configurations with pairwise different denominators:
    # at random, three, four and five on one line, two lines through a
    # common flag, and three finite flags on a line
    for _ in range(6):
        cfg = rand_mixed_config(rng)
        a, b = rand_gaussian(rng), rand_gaussian(rng)
        line = [a + b * z for z in cfg.z]
        out.append((ParabolicStructure(B, [rand_gaussian(rng) for _ in range(5)]), cfg))
        for ncol in (3, 4, 5):
            on = rng.sample(range(5), ncol)
            # moved off the line in the imaginary part alone
            flags = [u if i in on else u + Scalar.gaussian(0, 1, rng.randrange(1, 9), 7) for i, u in enumerate(line)]
            out.append((ParabolicStructure(B, flags), cfg))
        c = rand_gaussian(rng) + sc("1/7")
        flags = line[:3] + [line[2] + (b + c) * (cfg.z[i] - cfg.z[2]) for i in (3, 4)]
        out.append((ParabolicStructure(B, flags), cfg))
        inf = rng.sample(range(5), 2)
        out.append((ParabolicStructure(B, [INF if i in inf else u for i, u in enumerate(line)]), cfg))
    return out


class TestDegreeZeroLines:
    """B's degree-0 lines grouped by pair give the witnesses, lines included,
    in the order of the line through every pair evaluated at every flag."""

    def test_grouped_lines_match_evaluated_lines(self):
        sizes, nfin = set(), set()
        for s, cfg in _line_structures():
            got = [c for c in destabilizing_candidates(s, cfg) if c.degree == 0]
            assert got == oracle_b_degree_zero_candidates(s, cfg), s
            for c in got:
                assert oracle_contact_of(c.q, c.r, s, cfg) == c.contact
            sizes |= {len(c.contact) for c in got}
            nfin.add(len(s.finite_values()))
        assert sizes == {0, 1, 2, 3, 4, 5} and nfin == {0, 1, 2, 3, 5}


def _dependent_structures():
    # structures whose degree -1 contact rows are dependent.  B at (1, 2):
    # three or more infinite flags (any three of their rows are dependent),
    # four collinear flags, the fifth off the line or infinite; B' at
    # (0, 3): five flags on a cubic or a quadratic, where any four rows are
    # independent, so the full set is the one circuit
    rng = random.Random(101)
    out = []
    for _ in range(4):
        cfg = rand_config(rng)
        a, b = rand_rational(rng), rand_rational(rng, -10, 10, 4)
        line = [a + b * z for z in cfg.z]
        for n_inf in (3, 4, 5):
            out.append((rand_structure(rng, B, n_inf=n_inf), cfg))
        off = rng.randrange(5)
        out.append((ParabolicStructure(B, [u + 3 if i == off else u for i, u in enumerate(line)]), cfg))
        out.append((ParabolicStructure(B, [INF if i == off else u for i, u in enumerate(line)]), cfg))
        cubic = [rand_rational(rng, -6, 6, 3) for _ in range(4)]
        for deg in (3, 2):
            flags = [sum((cubic[e] * z ** e for e in range(deg + 1)), sc(0)) for z in cfg.z]
            out.append((ParabolicStructure(BPRIME, flags), cfg))
    return out


def _oracle_report(cands, d, w):
    # the first candidate of least margin in the rational enumeration's
    # order, and every candidate's margin
    margins = [oracle_s_value(d, c.degree, c.contact, w) for c in cands]
    least = min(margins)
    return StabilityReport(least > sc(0), cands[margins.index(least)], least), margins


class TestDependentContactRows:
    """Dependent contact rows, on B with proper dependent subsets: the
    kernel walk records what the rational enumeration over every contact set
    does, and a decision reports the same witness on margin ties."""

    def test_rows_are_partly_dependent(self):
        proper = {B: 0, BPRIME: 0}
        for s, cfg in _dependent_structures():
            dq, dr = _hom_degrees(s.bundle, -1)
            rows = oracle_contact_rows(s, cfg, dq, dr)
            full = tuple(rows)
            assert _rank(rows, full) < len(full), s
            proper[s.bundle] += any(_rank(rows, T) < len(T) for T in _subsets(full)[1:])
        assert proper == {B: 4 * 5, BPRIME: 0}, proper

    def test_same_contacts_in_same_order(self):
        for s, cfg in _dependent_structures():
            _assert_matches_oracle(s, cfg)

    def test_same_report_on_margin_ties(self):
        # weights in eighths, two of them equal so that margins can tie, off
        # the walls: per structure up to two whose least margin is a tie and
        # one whose is not
        rng = random.Random(103)
        ties = 0
        for s, cfg in _dependent_structures():
            cands = _oracle_candidates(s, cfg)
            d = s.bundle.degree
            picked = {True: 0, False: 0}
            for _ in range(100):
                a = [rng.randint(1, 7) for _ in range(5)]
                x, y = rng.sample(range(5), 2)
                a[y] = a[x]
                w = WeightVector([Scalar.rational(n, 8) for n in a])
                if not weight_is_non_special(w, d):
                    continue
                want, margins = _oracle_report(cands, d, w)
                tie = margins.count(want.margin) > 1
                if any(m.is_zero() for m in margins) or picked[tie] == (2 if tie else 1):
                    continue
                picked[tie] += 1
                assert is_stable(s, cfg, w).to_json() == want.to_json(), (s, w)
            ties += picked[True]
        # least margins tie on the four-collinear structures, two same-degree
        # contacts sharing the off-line flag
        assert ties >= 6, ties


class TestFlatWalk:
    """The work of the oracle's walk over every contact set
    (``helpers.destabilizing_candidates``) per structure: a decomposable
    structure, whose degree -1 rows are dependent, has every set of two to
    five flags searched, 26 spans from 30 restrictions."""

    # searched spans per decision of the four classes with independent rows
    SPANS = {"generic": 6, "one-inf": 6, "two-inf": 10, "bprime": 6}

    @staticmethod
    def _recorder(monkeypatch):
        # a function walking one structure and returning its one-row
        # restrictions, searched spans and visited contact sets with their
        # formal degrees, patched where the walk in helpers looks them up
        real_rows, real_kernel = helpers.contact_rows, helpers.memo_contact_kernel
        real_restrict, real_members = helpers._zi_restrict, helpers.saturated_members
        seen = {}

        def rows(structure, cfg, dq, dr):
            seen["rows"] = real_rows(structure, cfg, dq, dr)
            seen["degrees"] = (dq, dr)
            return seen["rows"]

        def kernel(T, zrows, kernels):
            if zrows is seen["rows"]:
                seen["visited"].append((seen["degrees"], T))
            return real_kernel(T, zrows, kernels)

        def restrict(basis, row):
            seen["restrict"] += 1
            return real_restrict(basis, row)

        def members(basis, dq, dr):
            seen["spans"] += 1
            return real_members(basis, dq, dr)

        for name, fn in (("contact_rows", rows), ("memo_contact_kernel", kernel),
                         ("_zi_restrict", restrict), ("saturated_members", members)):
            monkeypatch.setattr(helpers, name, fn)

        def decide(s, cfg):
            seen.update(rows=None, restrict=0, spans=0, visited=[])
            destabilizing_candidates(s, cfg)
            return dict(seen)

        return decide

    def test_work_per_decision(self, monkeypatch):
        decide = self._recorder(monkeypatch)
        for name, structures in _class_structures(random.Random(73), 8).items():
            for s, cfg in structures:
                seen = decide(s, cfg)
                if name == "decomposable":
                    assert (seen["spans"], seen["restrict"]) == (26, 30), seen
                else:
                    assert seen["spans"] == self.SPANS[name], (name, seen["spans"])
                assert len(seen["visited"]) == seen["spans"]


class TestCandidates:
    def test_degree_one_contact_is_infinity_set(self):
        s = ParabolicStructure(B, [INF, 0, 1, INF, 5])
        cands = [c for c in destabilizing_candidates(s, CFG) if c.degree == 1]
        assert len(cands) == 1
        assert cands[0].contact == frozenset({0, 3})

    def test_full_contact_when_determinant_vanishes(self):
        # flags cut out by the base-point-free map (z - 5, z^2 + 1): the
        # determinant vanishes and the full contact set is achieved
        q = Poly([-5, 1])
        r = Poly([1, 0, 1])
        s = ParabolicStructure(B, [r(z) / q(z) for z in CFG.z])
        from helpers import _delta_matrix

        assert _delta_matrix(s, CFG).det().is_zero()
        cands = [c for c in destabilizing_candidates(s, CFG) if c.degree == -1]
        assert len(cands) == 1
        assert cands[0].contact == frozenset(range(5))

    def test_collinear_full_contact_saturates_to_degree_zero(self):
        # along the collinear locus every degree -1 full-contact map has a
        # base point; the saturated witness appears at degree 0 instead
        s = ParabolicStructure(B, [0, 1, 2, 3, 4])
        cands = destabilizing_candidates(s, CFG)
        deg0 = [c for c in cands if c.degree == 0]
        assert any(c.contact == frozenset(range(5)) for c in deg0)
        assert all(c.contact != frozenset(range(5)) for c in cands if c.degree == -1)

    def test_generic_four_point_contacts(self):
        rng = random.Random(9)
        for _ in range(5):
            s = rand_structure(rng, B, n_inf=0)
            from helpers import _delta_matrix

            if _delta_matrix(s, CFG).det().is_zero():
                continue
            cands = [c for c in destabilizing_candidates(s, CFG) if c.degree == -1]
            contacts = {c.contact for c in cands}
            assert contacts == {
                frozenset(x) for x in combinations(range(5), 4)
            }

    def test_witnesses_hit_their_contacts(self):
        rng = random.Random(31)
        for _ in range(10):
            s = rand_structure(rng, B)
            for cand in destabilizing_candidates(s, CFG):
                for i in cand.contact:
                    qv, rv = fiber_at(cand, CFG.z[i])
                    u = s.flags[i]
                    if u.is_infinity():
                        assert qv.is_zero() and not rv.is_zero()
                    else:
                        assert rv == u.value * qv

    def test_bprime_degrees(self):
        rng = random.Random(12)
        s = rand_structure(rng, BPRIME, n_inf=0)
        degs = {c.degree for c in destabilizing_candidates(s, CFG)}
        assert degs <= {-1, 2}
        assert 2 in degs


class TestIsStable:
    def test_bump_structure_stable_at_quarter(self):
        s = ParabolicStructure(B, [0, 0, 0, 0, 1])
        report = is_stable(s, CFG, W14)
        assert report.stable
        assert report.margin == sc("1/4")

    def test_bump_structure_unstable_at_tenth(self):
        s = ParabolicStructure(B, [0, 0, 0, 0, 1])
        report = is_stable(s, CFG, WeightVector.uniform(sc("1/10")))
        assert not report.stable
        assert report.worst.degree == 1
        assert report.margin == sc("-1/2")

    def test_two_infinity_chamber_weight(self):
        s = ParabolicStructure(B, [INF, INF, 0, 1, 3])
        w = WeightVector(["3/4", "1/4", "3/4", "3/4", "3/4"])
        assert is_stable(s, CFG, w).stable

    def test_on_wall_reported(self):
        s = ParabolicStructure(B, [0, 0, 0, 0, 1])
        with pytest.raises(OnWallError):
            is_stable(s, CFG, WeightVector.uniform(sc("1/5")))


def _decision(decide, s, cfg, w, **kwargs):
    # what a decision reports, down to the worst witness's polynomials, or
    # the text of its OnWallError
    try:
        report = decide(s, cfg, w, **kwargs)
    except OnWallError as exc:
        return ("wall", str(exc))
    c = report.worst
    return (report.to_json(), report.margin, c.degree, c.contact, c.q, c.r)


class TestIntegerDecision:
    """The decision on integers reports what the decision on Scalars does,
    witness and error text included, and wraps Scalars only for its report."""

    def test_matches_scalar_decision(self):
        # 200 structures of each stability-random class; one weight in four
        # has denominators up to 4, so most of those lie on a wall (a
        # vanishing margin is a Kostov wall, which the weight check finds)
        rng = random.Random(113)
        seen = {"wall": 0, "stable": 0, "unstable": 0}
        for name, structures in _class_structures(rng, 200).items():
            for s, cfg in structures:
                d = s.bundle.degree
                w = rand_weight(rng, max_den=4) if rng.random() < 0.25 else rand_nonspecial_weight(rng, d)
                got = _decision(is_stable, s, cfg, w)
                for quick in (False, True):
                    assert got == _decision(oracle_is_stable_report, s, cfg, w, quick=quick), (name, s, w, quick)
                if got[0] == "wall":
                    seen["wall"] += 1
                elif got[0]["stable"]:
                    seen["stable"] += 1
                else:
                    seen["unstable"] += 1
        assert min(seen.values()) > 100, seen

    @staticmethod
    def _wraps(monkeypatch):
        # the triples wrapped as Scalars from now on
        wrapped = []
        real = Scalar._wrap.__func__

        def wrap(cls, triple):
            wrapped.append(triple)
            return real(cls, triple)

        monkeypatch.setattr(Scalar, "_wrap", classmethod(wrap))
        return wrapped

    def test_rows_lines_and_weight_check_wrap_no_scalar(self, monkeypatch):
        structures = [x for xs in _class_structures(random.Random(127), 4).values() for x in xs]
        structures += _line_structures()
        w = rand_nonspecial_weight(random.Random(131))
        divisions = []
        real_div = _kernel.t_div

        def t_div(x, y):
            divisions.append((x, y))
            return real_div(x, y)

        for module in (_kernel, exactnum, parastruct, stability):
            if hasattr(module, "t_div"):
                monkeypatch.setattr(module, "t_div", t_div)
        wrapped = self._wraps(monkeypatch)
        for s, cfg in structures:
            for k in _candidate_degrees(s.bundle):
                dq, dr = _hom_degrees(s.bundle, k)
                if dq >= 0:
                    contact_rows(s, cfg, dq, dr)
            if s.bundle == B:
                stability._b_degree_zero_candidates(s, cfg)
            weight_is_non_special(w, s.bundle.degree)
        assert wrapped == [] and divisions == []
        # classify wraps one Scalar per coordinate it returns, and no other
        with_coords = 0
        for s, cfg in structures:
            wrapped.clear()
            stratum = classify(s, cfg)
            assert len(wrapped) <= len(stratum.coords or ()), (s, stratum)
            with_coords += stratum.coords is not None
        assert with_coords > 20

    def test_one_witness_per_decision(self, monkeypatch):
        built = []
        real = LineSubbundleWitness.__new__

        def new(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(LineSubbundleWitness, "__new__", new)
        rng = random.Random(137)
        for name, structures in _class_structures(rng, 4).items():
            for s, cfg in structures:
                w = rand_nonspecial_weight(rng, s.bundle.degree)
                built.clear()
                report = is_stable(s, cfg, w)
                assert len(built) == 1 and built[0][0] == report.worst.degree, (name, built)


def _bounded_weight(rng, d, heavy=False, below=None):
    # a non-special weight with every w_i in [1/2, 1) and sum(w) > 3 when
    # ``heavy``, and sum(w) < ``below`` when given
    while True:
        dens = [rng.randrange(3, 17) for _ in range(5)]
        w = WeightVector([Scalar.rational(rng.randrange((n + 1) // 2 if heavy else 1, n), n) for n in dens])
        if heavy and not w.total() > sc(3):
            continue
        if below is not None and not w.total() < sc(below):
            continue
        if weight_is_non_special(w, d):
            return w


class TestDegreeStop:
    """``is_stable`` stops before degree ``k`` once the least margin is
    negative or at most ``b_k = d - 2k - sum(w)``, and reports what the full
    decision over every degree does."""

    @staticmethod
    def _structures(rng, count):
        # the five stability-random classes, and B' with infinite flags
        out = [x for xs in _class_structures(rng, count).values() for x in xs]
        return out + [(rand_structure(rng, BPRIME), rand_config(rng)) for _ in range(count)]

    @staticmethod
    def _kernel_calls(monkeypatch, module=stability, name="contact_kernel"):
        # the contact sets whose kernels ``module.name`` is asked for from now on
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_heavy_weights_match_full_decision(self, monkeypatch):
        # every w_i >= 1/2 and sum(w) > 3: a negative least margin is often
        # above the next degree's b_k, and then the negative rule alone ends
        # the decision before degree -1, the only one that builds kernels
        calls = self._kernel_calls(monkeypatch)
        rng = random.Random(139)
        seen = {"stable": 0, "unstable": 0, "negative-stop": 0}
        for s, cfg in self._structures(rng, 100):
            d = s.bundle.degree
            w = _bounded_weight(rng, d, heavy=True)
            calls.clear()
            got = _decision(is_stable, s, cfg, w)
            built = len(calls)
            for quick in (False, True):
                assert got == _decision(oracle_is_stable_report, s, cfg, w, quick=quick), (s, w, quick)
            report, margin, k = got[:3]
            seen["stable" if report["stable"] else "unstable"] += 1
            degrees = _candidate_degrees(s.bundle)
            if report["stable"] or k == degrees[-1]:
                continue
            if margin > sc(d - 2 * degrees[degrees.index(k) + 1]) - w.total():
                seen["negative-stop"] += 1
                assert built == 0, (s, w)
        assert min(seen.values()) > 60, seen

    def test_light_weights_build_no_kernel(self, monkeypatch):
        calls = self._kernel_calls(monkeypatch)
        rng = random.Random(149)
        structures = self._structures(rng, 12)
        for s, cfg in structures:
            w = _bounded_weight(rng, s.bundle.degree, below=2 if s.bundle == B else 3)
            is_stable(s, cfg, w)
        assert calls == []
        # the counter sees the kernels heavy weights' decisions build, three
        # weights per structure, as the least-margin search stops early
        for s, cfg in structures:
            for _ in range(3):
                is_stable(s, cfg, _bounded_weight(rng, s.bundle.degree, heavy=True))
        assert len(calls) > 100, len(calls)

    def test_dependent_rows_build_no_shared_kernel(self, monkeypatch):
        # the structures whose degree -1 rows are dependent, and decomposable
        # ones, at 50 weights each, every other one with each w_i in [1/2, 1):
        # a decision on B stops before degree -1, and one on B' records the
        # full contact set first, so no decision builds the kernel of a set
        # that a larger set shares
        calls = self._kernel_calls(monkeypatch)
        rng = random.Random(157)
        structures = _dependent_structures() + _class_structures(rng, 8)["decomposable"]
        full = tuple(range(5))
        full_built = 0
        for s, cfg in structures:
            d = s.bundle.degree
            for n in range(50):
                w = _bounded_weight(rng, d, heavy=n % 2 == 1)
                calls.clear()
                got = is_stable(s, cfg, w).to_json()
                assert calls == ([] if s.bundle == B else [full] * len(calls)), (s, w, calls)
                full_built += len(calls)
                assert got == oracle_is_stable_report(s, cfg, w).to_json(), (s, w)
        # heavy weights take B' decisions to degree -1
        assert full_built > 100, full_built

    def test_candidates_list_every_degree(self):
        # the stop is the decision's alone: every degree keeps its candidates
        per_structure = {
            "generic": {1: 1, 0: 10, -1: 5},
            "one-inf": {1: 1, 0: 6, -1: 5},
            "two-inf": {1: 1, 0: 3, -1: 2},
            "decomposable": {1: 1, 0: 1, -1: 10},
            "bprime": {2: 1, -1: 5},
        }
        for name, structures in _class_structures(random.Random(151), 10).items():
            for s, cfg in structures:
                counts = Counter(c.degree for c in destabilizing_candidates(s, cfg))
                assert counts == per_structure[name], (name, s, counts)


def _tie_structure(rng, cfg, bundle):
    # flags on a line or a conic, or small integers, with one to three
    # infinite flags or one finite flag moved off the curve: contact sets
    # coincide and degree -1 rows are often dependent
    kind = rng.choice(["line", "conic", "small", "infinite"])
    c = [rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1) if kind == "conic" else 0]
    if kind in ("line", "conic"):
        flags = [c[0] + c[1] * z + c[2] * z * z for z in cfg.z]
    else:
        flags = [sc(rng.randint(-2, 2)) for _ in cfg.z]
    if kind == "infinite" or rng.random() < 0.4:
        for i in rng.sample(range(5), rng.randint(1, 3)):
            flags[i] = INF
    elif rng.random() < 0.5:
        flags[rng.randrange(5)] = sc(rng.randint(-3, 3))
    return ParabolicStructure(bundle, flags)


def _tie_weight(rng, d):
    # a non-special weight of one or two distinct values over one
    # denominator from 5 to 15, so that many margins tie
    while True:
        den = rng.randint(5, 15)
        values = [rng.randint(1, den - 1) for _ in range(rng.randint(1, 2))]
        w = WeightVector([Scalar.rational(rng.choice(values), den) for _ in range(5)])
        if weight_is_non_special(w, d):
            return w


def _chamber_centres():
    # the chamber centres of ``stabilizing_weight``: uniform 4/15 and 7/15,
    # and 11/15 with 4/15 at each index
    fifteenths = [WeightVector.uniform(Scalar.rational(n, 15)) for n in (4, 7)]
    for j in range(5):
        fifteenths.append(WeightVector([Scalar.rational(4 if i == j else 11, 15) for i in range(5)]))
    return fifteenths


def _moment_cases(rng):
    """Decisions whose degree -1 search the moment test can decide: the five
    stability-random classes, tie and dependent-row structures, four flags
    on a line, B with five flags on ``r / q`` (``M_0 M_2 = M_1^2``) and with
    one infinite flag ``i0`` and the others on ``p / (z - z_i0)``
    (``Q(i0, i0) = 0``), B' with ``L(u) = 0`` (in the dependent rows) and
    with three and four finite flags; each at a light, a heavy and a tie
    weight, and B' with one infinite flag also at a lopsided one."""
    structures = [x for xs in _class_structures(rng, 20).values() for x in xs]
    structures += _dependent_structures()
    for _ in range(20):
        cfg = CFG if rng.random() < 0.5 else rand_config(rng)
        structures += [(_tie_structure(rng, cfg, bundle), cfg) for bundle in (B, BPRIME)]
        a, b = rand_rational(rng), rand_rational(rng, -10, 10, 4)
        line = [a + b * z for z in cfg.z]
        off = rng.randrange(5)
        line[off] = INF if rng.random() < 0.5 else line[off] + 1
        structures.append((ParabolicStructure(B, line), cfg))
        q, r, p = ([rand_rational(rng, -6, 6, 3) for _ in range(n)] for n in (2, 3, 3))
        if all(not (q[0] + q[1] * z).is_zero() for z in cfg.z):
            flags = [(r[0] + r[1] * z + r[2] * z * z) / (q[0] + q[1] * z) for z in cfg.z]
            structures.append((ParabolicStructure(B, flags), cfg))
        i0 = rng.randrange(5)
        z0 = cfg.z[i0]
        flags = [INF if i == i0 else (p[0] + p[1] * z + p[2] * z * z) / (z - z0) for i, z in enumerate(cfg.z)]
        structures.append((ParabolicStructure(B, flags), cfg))
        structures += [(rand_structure(rng, BPRIME, n_inf=n), cfg) for n in (1, 2)]
    cases = []
    for s, cfg in structures:
        d = s.bundle.degree
        for w in (_bounded_weight(rng, d), _bounded_weight(rng, d, heavy=True), _tie_weight(rng, d)):
            cases.append((s, cfg, w))
        if s.bundle == BPRIME and len(s.infinity_indices()) == 1:
            # a light weight at the infinite flag and heavy ones elsewhere
            # leave the canonical factor a positive margin, which the four
            # finite flags' set undercuts
            cases.append((s, cfg, _lopsided_weight(rng, d, s.infinity_indices()[0])))
    return cases


def _lopsided_weight(rng, d, j):
    # a non-special weight below 1/4 at j and above 5/6 elsewhere
    while True:
        den = rng.randint(24, 40)
        nums = [rng.randint(1, den // 4) if i == j else rng.randint(den * 5 // 6 + 1, den - 1) for i in range(5)]
        w = WeightVector([Scalar.rational(n, den) for n in nums])
        if weight_is_non_special(w, d):
            return w


class TestLeastMarginSearch:
    """At a degree that needs kernels, ``is_stable`` searches the contact
    sets least margin first and stops at the first whose kernel holds a
    saturated member: it reports the full decision's witness, ties
    included, and builds only kernels of sets that could replace the
    witness of the higher degrees."""

    def test_tie_heavy_weights_match_full_decision(self):
        # random B and B' structures at weights of one or two values, and
        # Ui and Uij structures at the chamber centres, on z = 0..4 and on a
        # random configuration, where equal-size contact sets tie
        rng = random.Random(163)
        cases = []
        for _ in range(800):
            cfg = CFG if rng.random() < 0.5 else rand_config(rng)
            s = _tie_structure(rng, cfg, rng.choice([B, BPRIME]))
            cases.append((s, cfg, _tie_weight(rng, s.bundle.degree)))
        for cfg in (CFG, rand_config(rng)):
            structures = [rand_ui_indecomposable(rng, cfg, i) for i in range(5)]
            structures += [rand_uij_indecomposable(rng, cfg, i, j) for i, j in combinations(range(5), 2)]
            cases += [(s, cfg, w) for s in structures for w in _chamber_centres()]
        seen = Counter()
        for s, cfg, w in cases:
            got = _decision(is_stable, s, cfg, w)
            for quick in (False, True):
                assert got == _decision(oracle_is_stable_report, s, cfg, w, quick=quick), (s, cfg, w, quick)
            if got[0] == "wall":
                continue
            want, margins = _oracle_report(destabilizing_candidates(s, cfg), s.bundle.degree, w)
            seen["degree -1"] += got[2] == -1
            seen["degree -1 tie"] += got[2] == -1 and margins.count(want.margin) > 1
        assert len(cases) > 1000 and seen["degree -1"] > 100 and seen["degree -1 tie"] > 30, (len(cases), seen)

    def test_kernels_only_of_sets_that_can_win(self, monkeypatch):
        # the five stability-random classes, every other weight heavy: each
        # set whose kernel a decision asks for has a degree -1 margin below
        # the least margin of the higher degrees, and the decisions that
        # reach degree -1 ask for fewer kernels than the oracle's walk over
        # every contact set visits
        calls = TestDegreeStop._kernel_calls(monkeypatch)
        walked = TestDegreeStop._kernel_calls(monkeypatch, helpers, "memo_contact_kernel")
        rng = random.Random(167)
        built = visited = reached = 0
        for name, structures in _class_structures(rng, 30).items():
            for n, (s, cfg) in enumerate(structures):
                d = s.bundle.degree
                w = _bounded_weight(rng, d, heavy=True) if n % 2 else rand_nonspecial_weight(rng, d)
                calls.clear()
                is_stable(s, cfg, w)
                asked = list(calls)
                higher = min(
                    oracle_s_value(d, c.degree, c.contact, w)
                    for k in _candidate_degrees(s.bundle)[:-1]
                    for c in destabilizing_candidates(s, cfg) if c.degree == k
                )
                for T in asked:
                    assert oracle_s_value(d, -1, T, w) < higher, (name, s, w, T)
                if higher < sc(0) or higher <= sc(d + 2) - w.total():
                    assert asked == [], (name, s, w)
                    continue
                reached += 1
                built += len(asked)
                walked.clear()
                walk_candidates_at_degree(s, cfg, -1)
                visited += len(walked)
        assert reached > 50 and 0 < built < visited, (reached, built, visited)

    def test_searched_spans_cost_one_saturation_test(self, monkeypatch):
        # the one kernel a decision that reaches degree -1 folds is the
        # winning set's, of dimension exactly 1 with a saturated vector, so
        # the decision makes exactly one _is_saturated call on it (the proof
        # is in is_stable's docstring), and no empty kernel is folded: on
        # the five stability-random classes, dependent rows and tie
        # structures, at light, heavy and tie weights
        real_is_saturated, real_kernel = stability._is_saturated, stability.contact_kernel
        spans = []

        def is_saturated(vec, dq, dr):
            spans[-1][0] = dq
            spans[-1][2] += 1
            return real_is_saturated(vec, dq, dr)

        def kernel(T, zrows):
            basis = real_kernel(T, zrows)
            spans.append([None, len(basis), 0])
            return basis

        monkeypatch.setattr(stability, "_is_saturated", is_saturated)
        monkeypatch.setattr(stability, "contact_kernel", kernel)
        rng = random.Random(173)
        structures = [x for xs in _class_structures(rng, 40).values() for x in xs]
        structures += _dependent_structures()
        for _ in range(400):
            cfg = CFG if rng.random() < 0.5 else rand_config(rng)
            structures.append((_tie_structure(rng, cfg, rng.choice([B, BPRIME])), cfg))
        # (dq, dimension, calls) per folded kernel: dq = 1 on B, 0 on B'
        seen = Counter()
        for s, cfg in structures:
            d = s.bundle.degree
            for w in (_bounded_weight(rng, d), _bounded_weight(rng, d, heavy=True), _tie_weight(rng, d)):
                spans.clear()
                is_stable(s, cfg, w)
                assert len(spans) <= 1, (s, cfg, w, spans)
                seen.update(map(tuple, spans))
        assert set(seen) == {(0, 1, 1), (1, 1, 1)} and min(seen.values()) > 100, seen

    def test_moment_search_matches_oracle_search(self, monkeypatch):
        # each degree -1 search a decision makes returns the (contact,
        # payload) of the search that folds and walks every ranked set's
        # kernel, and a decision routed through that search alone reports
        # the same, witness and wall text included
        cases = _moment_cases(random.Random(179))
        got = [_decision(is_stable, s, cfg, w) for s, cfg, w in cases]
        real = stability._candidates_at_degree
        seen = Counter()

        def oracle_search(structure, cfg, k, below=None):
            if below is None or k != -1:
                return real(structure, cfg, k, below)
            want = oracle_least_margin_candidates(structure, cfg, k, below)
            assert real(structure, cfg, k, below) == want, (structure, cfg, below)
            # the winner: none, or its size, bundle and infinite flags
            n_inf = len(structure.infinity_indices())
            seen[(len(want[0][0]), structure.bundle.name, n_inf) if want else None] += 1
            return want

        monkeypatch.setattr(stability, "_candidates_at_degree", oracle_search)
        for (s, cfg, w), want in zip(cases, got):
            assert _decision(is_stable, s, cfg, w) == want, (s, cfg, w)
        wanted = [None, (5, "B", 0), (5, "B", 1), (5, "Bprime", 0), (4, "B", 0), (4, "B", 1), (4, "Bprime", 0), (4, "Bprime", 1)]
        assert min(seen[key] for key in wanted) > 10, seen

    def test_one_fold_per_decision(self, monkeypatch):
        # a decision that reaches degree -1 builds the contact rows and one
        # kernel fold for the winning set, and none when no set wins
        folds = Counter()
        for name in ("contact_rows", "contact_kernel"):

            def counted(*args, _real=getattr(stability, name), _name=name):
                folds[_name] += 1
                return _real(*args)

            monkeypatch.setattr(stability, name, counted)
        real = stability._candidates_at_degree
        searches = []

        def search(structure, cfg, k, below=None):
            found = real(structure, cfg, k, below)
            if below is not None and k == -1:
                searches.append(bool(found))
            return found

        monkeypatch.setattr(stability, "_candidates_at_degree", search)
        seen = Counter()
        for s, cfg, w in _moment_cases(random.Random(181)):
            folds.clear()
            searches.clear()
            try:
                is_stable(s, cfg, w)
            except OnWallError:
                continue
            won = int(any(searches))
            assert (folds["contact_rows"], folds["contact_kernel"]) == (won, won), (s, cfg, w, folds)
            seen["won" if won else "lost" if searches else "stopped"] += 1
        assert set(seen) == {"won", "lost", "stopped"} and min(seen.values()) > 50, seen


class TestWinnerInvariant:
    """``is_stable`` checks that the winning degree -1 kernel is one
    saturated vector; a kernel that is not raises InvariantError, which the
    CLI reports with exit code 4, on an input whose decision folds the full
    contact set's kernel."""

    ARGV = ["stability", "--bundle", "B", "--z", "0,1,2,3,4", "--u", "0,1,4,9,16",
            "--w", "9/10,9/10,9/10,9/10,9/10"]
    # two basis vectors, and one nonzero vector (q, r) = (z, z^2), which has
    # a base point at z = 0
    BASES = {
        "dimension 2": [[(1, 0), (0, 0), (0, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0), (0, 0), (0, 0)]],
        "unsaturated": [[(0, 0), (1, 0), (0, 0), (0, 0), (1, 0)]],
    }

    def test_input_folds_the_full_contact_kernel(self, monkeypatch, capsys):
        folded = TestDegreeStop._kernel_calls(monkeypatch)
        assert main(self.ARGV) == 0
        report = json.loads(capsys.readouterr().out)["worst"]
        assert (report["deg"], report["contact"], report["margin"]) == (-1, [1, 2, 3, 4, 5], "-3/2")
        assert folded == [(0, 1, 2, 3, 4)]

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_bad_kernel_raises_and_exits_4(self, name, monkeypatch, capsys):
        monkeypatch.setattr(stability, "contact_kernel", lambda T, zrows: self.BASES[name])
        s = ParabolicStructure(B, [0, 1, 4, 9, 16])
        with pytest.raises(InvariantError):
            is_stable(s, CFG, WeightVector.uniform(sc("9/10")))
        assert main(self.ARGV) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("internal error: "), captured


class TestOracleAgreement:
    def test_random_instances_match_case_analysis(self):
        rng = random.Random(77)
        for _ in range(120):
            cfg = rand_config(rng)
            bundle = rng.choice([B, B, BPRIME])
            s = rand_structure(rng, bundle)
            w = rand_nonspecial_weight(rng)
            try:
                verdict = is_stable(s, cfg, w).stable
            except OnWallError:
                continue
            assert verdict == oracle_is_stable(s, cfg, w)

    def test_non_maximum_collinear_set_destabilizes(self):
        # flags 1, 2, 5 are collinear, yet the pair {4, 5} has the smaller
        # degree-0 margin 1 - 151/130 < 0
        cfg = MarkedConfiguration(["-11/3", "7/4", "10/3", "9/4", "5"])
        s = ParabolicStructure(B, ["-16", "-11/2", "-21/2", "-34", "4/5"])
        w = WeightVector(["3/13", "2/13", "1/13", "12/13", "7/10"])
        assert is_stable(s, cfg, w).stable is False
        assert oracle_is_stable(s, cfg, w) is False


class TestStabilizingWeight:
    def test_witness_values(self):
        assert stabilizing_weight(classify(ParabolicStructure(B, [0, 0, 1, 0, 0]), CFG)) == WeightVector.uniform(sc("4/15"))
        st = classify(ParabolicStructure(B, [0, INF, 1, 0, 0]), CFG)
        assert stabilizing_weight(st) == WeightVector.uniform(sc("7/15"))
        st2 = classify(ParabolicStructure(B, [INF, INF, 0, 1, 3]), CFG)
        assert stabilizing_weight(st2) == WeightVector(
            ["11/15", "4/15", "11/15", "11/15", "11/15"]
        )

    def test_weights_are_shared_constants(self):
        # one WeightVector per pattern, the same object on every call: U2,
        # Ui, and Uij by its second infinite index, whose index-1 pattern
        # B''s generic stratum shares
        def weight(bundle, flags):
            return stabilizing_weight(classify(ParabolicStructure(bundle, flags), CFG))

        u2, ui = weight(B, [0, 0, 1, 0, 0]), weight(B, [0, INF, 1, 0, 0])
        assert u2 is weight(B, [3, 0, 1, 0, 0]) and ui is weight(B, [INF, 2, 1, 0, 0])
        uij = {j: {id(weight(B, [INF if k in (i, j) else k * k for k in range(5)])) for i in range(j)} for j in range(1, 5)}
        assert all(len(ids) == 1 for ids in uij.values())
        assert len({id(u2), id(ui)} | set().union(*uij.values())) == 6
        assert {id(weight(BPRIME, [z**4 for z in CFG.z]))} == uij[1]

    def test_witnesses_are_non_special(self):
        from paramod.stability import weight_is_non_special

        for st in [
            classify(ParabolicStructure(B, [0, 0, 1, 0, 0]), CFG),
            classify(ParabolicStructure(B, [0, INF, 1, 0, 0]), CFG),
            classify(ParabolicStructure(B, [INF, INF, 0, 1, 3]), CFG),
        ]:
            assert weight_is_non_special(stabilizing_weight(st), 1)

    def test_rejects_decomposable(self):
        from paramod.parastruct import StratumError

        st = classify(ParabolicStructure(B, [INF, INF, INF, 0, 0]), CFG)
        with pytest.raises(StratumError):
            stabilizing_weight(st)


class TestEmptiness:
    def test_small_total(self):
        assert no_stable_structure(WeightVector.uniform(sc("1/10")), B)

    def test_chamber_weight_admits_stable(self):
        assert not no_stable_structure(WeightVector.uniform(sc("4/15")), B)

    def test_bprime_quarter(self):
        assert no_stable_structure(W14, BPRIME)

    def test_matches_search(self):
        rng = random.Random(123)
        w_empty = WeightVector.uniform(sc("1/10"))
        for _ in range(300):
            s = rand_structure(rng, B)
            try:
                assert not is_stable(s, CFG, w_empty).stable
            except OnWallError:
                pass


class TestMonotonicity:
    def test_degree_one_weight_growth(self):
        rng = random.Random(55)
        for n_inf, expected_sign in [(3, -1), (4, -1), (5, -1), (0, 1), (1, 1), (2, 1)]:
            s = rand_structure(rng, B, n_inf=n_inf)
            contact = set(s.infinity_indices())
            w_small = WeightVector.uniform(sc("1/8"))
            w_big = WeightVector.uniform(sc("1/4"))
            delta = s_value(1, 1, contact, w_big) - s_value(1, 1, contact, w_small)
            if expected_sign < 0:
                assert delta < sc(0)
            else:
                assert delta > sc(0)


class TestChambers:
    def test_quarter_weight_descriptor(self):
        desc = chamber_classify(W14, 1)
        assert isinstance(desc, ChamberDescriptor)
        assert "+++++ > 1" in desc.inequalities
        assert "+++++ < 3" in desc.inequalities

    def test_fifth_weight_on_wall(self):
        with pytest.raises(OnWallError):
            chamber_classify(WeightVector.uniform(sc("1/5")), 1)

    def test_zero_weight_valid(self):
        desc = chamber_classify(WeightVector.uniform(0), 1)
        assert desc.inequalities
